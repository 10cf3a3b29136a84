"""Separated Gaussian convolution operators and the reference ``Apply``.

This is the paper's Algorithm 1-2: for every node of the (nonstandard
form) source tree and every significant displacement, apply the
separated integral operator (Formula 1) and accumulate the result into
the neighbour box of the result tree; finally sum the per-scale
contributions down the tree.

The operator acts in the *nonstandard form*: each tree node contributes
through ``(2k, 2k)`` combined ``[s|d]`` blocks ``T^{n,delta}``, with the
scaling->scaling part subtracted at every level but the coarsest (the
telescoping that prevents double counting across scales).  The 2-D
operator matrices are produced lazily per ``(level, displacement, mu)``
and held in the write-once software cache the paper describes.

Everything derived from them is built once per operator and read-only:
the 1-D norms per ``(level, |delta|)`` (one batched spectral norm over
the M stacked blocks), the per-mu screening norms per ``(level, delta,
subtracted)`` (tabulated a whole displacement ring at a time by
:meth:`GaussianConvolution.level_displacements`, then looked up by
:meth:`GaussianConvolution.term_norms`), and the payload terms of the
batched Apply per ``(level, delta, keep, ns)``
(:meth:`GaussianConvolution.formula_terms`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import OperatorError
from repro.mra.function import (
    MultiresolutionFunction,
    RECONSTRUCTED,
    child_block,
    scaling_corner,
)
from repro.mra.key import Key
from repro.mra.node import FunctionNode
from repro.mra.tree import FunctionTree
from repro.mra.twoscale import TwoScaleFilter
from repro.operators.blocks import gaussian_block_1d, ns_block_from_children
from repro.operators.cache import OperatorBlockCache
from repro.operators.displacements import displacement_ring
from repro.operators.gaussian_fit import GaussianExpansion, fit_inverse_r
from repro.tensor.flops import add_flops, formula1_flops
from repro.tensor.transform import transform

#: absolute floor below which an operator block is treated as exactly zero.
_NORM_FLOOR = 1e-300


@dataclass
class ApplyStats:
    """Work statistics of one ``Apply`` call — the quantities the paper's
    runtime and tables are phrased in (task counts, rank, FLOPs)."""

    source_nodes: int = 0
    tasks: int = 0  # (source node, displacement) pairs past screening
    mu_applications: int = 0  # rank terms actually multiplied
    flops: int = 0
    screened_displacements: int = 0
    by_level: dict[int, int] = field(default_factory=dict)

    def record_task(self, level: int) -> None:
        """Count one surviving (source node, displacement) task."""
        self.tasks += 1
        self.by_level[level] = self.by_level.get(level, 0) + 1


@dataclass(frozen=True)
class FormulaTerms:
    """What every task with one ``(level, delta, keep, ns)`` signature shares.

    Attributes:
        stacks: one read-only ``(M, q, q)`` array per axis, the kept
            terms' operator blocks in transform orientation (transposed).
        coeffs: the read-only signed ``c_mu`` of the kept terms.
        block_keys: ``(level, delta_axis, mu, ns)`` per term and axis,
            the keys the GPU block cache ships by.
    """

    stacks: tuple[np.ndarray, ...]
    coeffs: np.ndarray
    block_keys: tuple[tuple[int, int, int, bool], ...]

    @property
    def nbytes(self) -> int:
        """Bytes held by the arrays (the cache's insertion ledger)."""
        return sum(s.nbytes for s in self.stacks) + self.coeffs.nbytes


class GaussianConvolution:
    """A convolution operator in separated Gaussian form.

    Args:
        dim: spatial dimension.
        k: multiwavelet order of the functions it acts on.
        expansion: the kernel's Gaussian expansion (rank ``M``).
        thresh: accuracy target; drives displacement and rank screening.
        max_radius: hard cap on the displacement Chebyshev radius.
    """

    def __init__(
        self,
        dim: int,
        k: int,
        expansion: GaussianExpansion,
        *,
        thresh: float = 1e-6,
        max_radius: int = 8,
    ):
        if dim < 1 or k < 1:
            raise OperatorError(f"invalid dim={dim} or k={k}")
        self.dim = dim
        self.k = k
        self.expansion = expansion
        self.thresh = thresh
        self.max_radius = max_radius
        self.filter = TwoScaleFilter.build(k)
        self.r_cache = OperatorBlockCache()
        self.ns_cache = OperatorBlockCache()
        self.terms_cache = OperatorBlockCache()
        self._norm1d: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._term_rows: dict[tuple[int, tuple[int, ...], bool], np.ndarray] = {}
        self._level_disps: dict[int, list[tuple[tuple[int, ...], float]]] = {}

    # -- 1-D blocks -----------------------------------------------------------

    def r_block(self, level: int, delta: int, mu: int) -> np.ndarray:
        """Scaling-basis block ``R^{n,delta}`` for rank term ``mu``.

        Symmetry ``R^{n,-delta} = (R^{n,delta})^T`` (even kernel) halves
        the cache.
        """
        if delta < 0:
            return self.r_block(level, -delta, mu).T
        a = float(self.expansion.exponents[mu])
        return self.r_cache.get_or_compute(
            (level, delta, mu),
            lambda: gaussian_block_1d(self.k, a, level, delta),
        )

    def ns_block(self, level: int, delta: int, mu: int) -> np.ndarray:
        """Nonstandard ``(2k, 2k)`` block ``T^{n,delta}`` for term ``mu``."""
        if delta < 0:
            return self.ns_block(level, -delta, mu).T
        return self.ns_cache.get_or_compute(
            (level, delta, mu),
            lambda: ns_block_from_children(
                self.filter,
                self.r_block(level + 1, 2 * delta, mu),
                self.r_block(level + 1, 2 * delta - 1, mu),
                self.r_block(level + 1, 2 * delta + 1, mu),
            ),
        )

    def formula_terms(
        self, level: int, delta: tuple[int, ...], keep: np.ndarray, *, ns: bool
    ) -> FormulaTerms:
        """The operator half of a Formula 1 payload, built once per signature.

        ``keep`` lists the retained rank terms.  ``ns=True`` gives the NS
        blocks with the expansion coefficients; ``ns=False`` the telescoping
        correction, the ``R`` blocks with negated coefficients.  Tasks with
        the same ``(level, delta, keep, ns)`` share one entry of
        :attr:`terms_cache`.
        """
        return self.terms_cache.get_or_compute(
            (level, delta, keep.tobytes(), ns),
            lambda: self._build_terms(level, delta, keep, ns=ns),
        )

    def _build_terms(
        self, level: int, delta: tuple[int, ...], keep: np.ndarray, *, ns: bool
    ) -> FormulaTerms:
        block = self.ns_block if ns else self.r_block
        mus = [int(mu) for mu in keep]
        stacks = tuple(np.stack([block(level, d, mu).T for mu in mus]) for d in delta)
        coeffs = (1.0 if ns else -1.0) * self.expansion.coeffs[keep]
        for arr in stacks + (coeffs,):
            arr.setflags(write=False)
        block_keys = tuple((level, d, mu, ns) for mu in mus for d in delta)
        return FormulaTerms(stacks=stacks, coeffs=coeffs, block_keys=block_keys)

    def _norms_1d(self, level: int, dabs: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached per-mu 1-D norms at ``(level, |delta|)``.

        Returns ``(n_full, n_coupling)``: spectral norms of the full NS
        block and of the NS block with its scaling->scaling corner
        removed.  The coupling norm is what decays rapidly with distance
        (the wavelets' vanishing moments), and is the correct screening
        quantity for the telescoped operator.  Each kind is one batched
        norm over the stacked ``(M, 2k, 2k)`` blocks.
        """
        key = (level, dabs)
        cached = self._norm1d.get(key)
        if cached is not None:
            return cached
        mus = range(self.expansion.rank)
        t = np.stack([self.ns_block(level, dabs, mu) for mu in mus])
        n_full = np.linalg.norm(t, 2, axis=(1, 2))
        t[:, : self.k, : self.k] -= np.stack([self.r_block(level, dabs, mu) for mu in mus])
        n_coup = np.linalg.norm(t, 2, axis=(1, 2))
        n_full.setflags(write=False)
        n_coup.setflags(write=False)
        self._norm1d[key] = (n_full, n_coup)
        return n_full, n_coup

    def _tabulate_norms(
        self, level: int, deltas: list[tuple[int, ...]], subtracted: bool
    ) -> np.ndarray:
        """Per-mu norm estimates of many displacements as one ``(n, M)`` array.

        For the unsubtracted operator (coarsest level) the tensor-product
        bound is the product of 1-D norms.  For the telescoped operator
        ``(x)T - (x)embed(R)`` the bound follows from the telescoping
        identity: ``sum_i ||T_i - embed(R_i)|| * prod_{j != i} ||T_j||``.
        Each row is multiplied in the same axis order as a single
        displacement's would be, so rows do not depend on the batch.  The
        rows are read-only and enter the :meth:`term_norms` table.
        """
        absd = np.abs(np.array(deltas)).T  # (d, n)
        norms = [self._norms_1d(level, dabs) for dabs in range(int(absd.max()) + 1)]
        full_tab = np.stack([nf for nf, _nc in norms])
        full = [full_tab[a] for a in absd]
        coeffs = np.abs(self.expansion.coeffs)
        if not subtracted:
            out = np.broadcast_to(coeffs, full[0].shape)
            for nf in full:
                out = out * nf
        else:
            coup_tab = np.stack([nc for _nf, nc in norms])
            total = np.zeros(full[0].shape)
            for i in range(len(full)):
                term = coup_tab[absd[i]]
                for j, nf in enumerate(full):
                    if j != i:
                        term = term * nf
                total += term
            out = coeffs * total
        out.setflags(write=False)
        for delta, row in zip(deltas, out):
            self._term_rows[(level, delta, subtracted)] = row
        return out

    def term_norms(
        self, level: int, delta: tuple[int, ...], *, subtracted: bool
    ) -> np.ndarray:
        """Per-mu operator-norm estimates for one displacement vector.

        A read-only row of the table :meth:`level_displacements` fills
        ring by ring; a displacement outside the screened rings is
        tabulated on first use.
        """
        row = self._term_rows.get((level, delta, subtracted))
        if row is None:
            row = self._tabulate_norms(level, [delta], subtracted)[0]
        return row

    def operator_norm(
        self, level: int, delta: tuple[int, ...], *, subtracted: bool
    ) -> float:
        """Norm estimate of the whole operator for one displacement."""
        return float(self.term_norms(level, delta, subtracted=subtracted).sum())

    # -- displacement screening --------------------------------------------------

    def level_displacements(self, level: int) -> list[tuple[tuple[int, ...], float]]:
        """Significant displacements at ``level``, with norm estimates.

        Rings of increasing Chebyshev radius are generated until a whole
        ring falls below ``thresh * 1e-3`` (relative to a unit-norm
        source), or the hard radius cap is hit.  Each ring's term norms
        are evaluated at once and kept for :meth:`term_norms`.  The list
        is cached per level and shared by all tasks — it is the MADNESS
        "obtain displacements" step of Algorithm 1.
        """
        cached = self._level_disps.get(level)
        if cached is not None:
            return cached
        floor = self.thresh * 1e-3
        subtracted = level > 0
        out: list[tuple[tuple[int, ...], float]] = []
        for radius in range(self.max_radius + 1):
            ring = list(displacement_ring(self.dim, radius))
            sums = self._tabulate_norms(level, ring, subtracted).sum(axis=1)
            kept = [
                (delta, float(norm)) for delta, norm in zip(ring, sums) if norm > floor
            ]
            if radius > 0 and not kept:
                break
            out.extend(kept)
        self._level_disps[level] = out
        return out

    # -- the integral kernel (Formula 1) -------------------------------------------

    def muopxv(
        self,
        level: int,
        delta: tuple[int, ...],
        chat: np.ndarray,
        *,
        subtract_coarse: bool,
        tol: float = 0.0,
    ) -> np.ndarray:
        """Apply the separated operator to one combined ``(2k)^d`` tensor.

        Evaluates Formula 1 with the ``(2k)^d`` nonstandard blocks and, if
        ``subtract_coarse``, removes the scaling->scaling part that
        coarser levels already account for (the "T - T0" trick of the
        MADNESS implementation).

        The rank terms are evaluated by :meth:`_batched_apply`, one
        per-``mu`` chain of ``dim`` ``tensordot`` contractions (the same
        contractions, in the same axis order, as the ``mtxmq`` chain the
        kernels execute); FLOPs are accounted as if executed term by
        term, which is what they cost on the modeled hardware.
        """
        norms = self.term_norms(level, delta, subtracted=subtract_coarse)
        keep = np.nonzero(norms > tol)[0]
        if keep.size == 0:
            return np.zeros_like(chat)
        big = self._batched_apply(chat[None], level, delta, keep, ns=True)[0]
        if subtract_coarse:
            corner = scaling_corner(self.dim, self.k)
            small = self._batched_apply(
                chat[corner][None], level, delta, keep, ns=False
            )[0]
            big[corner] -= small
            add_flops(small.size, "subtract")
        return big

    def _batched_apply(
        self,
        batch: np.ndarray,
        level: int,
        delta: tuple[int, ...],
        keep: np.ndarray,
        *,
        ns: bool,
    ) -> np.ndarray:
        """Apply the kept rank terms to a batch of tensors at once.

        ``batch`` has shape ``(n, q, ..., q)``; the same per-dimension
        operator matrices act on every tensor, so each rank term is a
        chain of ``dim`` batched ``mtxmq`` contractions — numerically
        identical to the per-task kernel loop but amortising NumPy call
        overhead across the whole batch (this is also exactly the data
        aggregation the paper performs before shipping a batch to the
        GPU).  FLOPs are accounted per executed rank term.
        """
        block = self.ns_block if ns else self.r_block
        out = np.zeros_like(batch)
        for mu in keep:
            t = batch
            for axis in range(self.dim):
                m = block(level, delta[axis], int(mu))
                # contract the leading tensor axis (axis 1 of the batch)
                # against the operator's input index; the contracted axis
                # lands last, rotating the tensor axes exactly as mtxmq.
                t = np.tensordot(t, m, axes=([1], [1]))
            out += float(self.expansion.coeffs[mu]) * t
        q = batch.shape[1]
        add_flops(
            batch.shape[0] * formula1_flops(self.dim, q, int(len(keep))),
            "formula1",
        )
        return out

    # -- reference Apply (paper Algorithms 1-2) ----------------------------------

    def apply(
        self,
        f: MultiresolutionFunction,
        *,
        stats: ApplyStats | None = None,
        copy_input: bool = True,
    ) -> MultiresolutionFunction:
        """Apply the operator to ``f`` and return the result function.

        The source is converted to nonstandard form (on a copy unless
        ``copy_input=False``); contributions are accumulated into a fresh
        result tree and summed down; the result is reconstructed.
        """
        if (f.dim, f.k) != (self.dim, self.k):
            raise OperatorError(
                f"operator (dim={self.dim}, k={self.k}) cannot act on "
                f"function (dim={f.dim}, k={f.k})"
            )
        stats = stats if stats is not None else ApplyStats()
        src = f.copy() if copy_input else f
        src.nonstandard()
        result_tree = FunctionTree(self.dim)
        corner = scaling_corner(self.dim, self.k)
        tol = self.thresh

        # Group source nodes by level: every task at (level, delta) shares
        # its operator matrices, so the whole group is applied as one
        # batched contraction (the paper's aggregation of computation).
        by_level: dict[int, list[tuple[Key, np.ndarray]]] = {}
        for key, node in src.tree.items():
            if node.coeffs is None:
                continue
            stats.source_nodes += 1
            by_level.setdefault(key.level, []).append((key, self._combined(node)))

        rank = max(1, self.expansion.rank)
        for level in sorted(by_level):
            group = by_level[level]
            keys = [key for key, _c in group]
            chats = np.stack([c for _k, c in group])
            cnorms = np.linalg.norm(chats.reshape(len(group), -1), axis=1)
            disps = self.level_displacements(level)
            tol_task = tol / max(1, len(disps))
            subtract = level > 0
            for delta, opnorm in disps:
                selected: list[int] = []
                neighbors: list[Key] = []
                for i, key in enumerate(keys):
                    if opnorm * cnorms[i] < tol_task:
                        stats.screened_displacements += 1
                        continue
                    neighbor = key.neighbor(delta)
                    if neighbor is None:
                        continue
                    selected.append(i)
                    neighbors.append(neighbor)
                if not selected:
                    continue
                batch = chats[selected]
                cmax = float(cnorms[selected].max())
                mu_tol = tol_task / (max(cmax, _NORM_FLOOR) * rank)
                norms_mu = self.term_norms(level, delta, subtracted=subtract)
                keep = np.nonzero(norms_mu > mu_tol)[0]
                if keep.size == 0:
                    continue
                big = self._batched_apply(batch, level, delta, keep, ns=True)
                if subtract:
                    small = self._batched_apply(
                        batch[(slice(None),) + corner], level, delta, keep, ns=False
                    )
                    big[(slice(None),) + corner] -= small
                for neighbor, contrib in zip(neighbors, big):
                    result_tree.ensure_path(neighbor).accumulate(contrib)
                    stats.record_task(level)
                    stats.mu_applications += int(keep.size)
        return sum_down_ns(
            result_tree,
            dim=self.dim,
            k=self.k,
            filter_=self.filter,
            thresh=f.thresh,
            truncate_mode=f.truncate_mode,
        )

    def _combined(self, node: FunctionNode) -> np.ndarray:
        """Promote a node's coefficients to the combined ``(2k)^d`` tensor."""
        coeffs = node.coeffs
        if coeffs.shape[0] == 2 * self.k:
            return coeffs
        chat = np.zeros((2 * self.k,) * self.dim)
        chat[scaling_corner(self.dim, self.k)] = coeffs
        return chat


def sum_down_ns(
    tree: FunctionTree,
    *,
    dim: int,
    k: int,
    filter_: TwoScaleFilter,
    thresh: float,
    truncate_mode: str = "absolute",
) -> MultiresolutionFunction:
    """Assemble a reconstructed function from per-scale NS contributions.

    Top-down pass: each node's accumulated ``(2k)^d`` tensor receives its
    parent's scaling contribution in the corner and is unfiltered to its
    children.  A childless node whose wavelet content is non-negligible
    is refined one extra level so no detail is lost (the result of a
    convolution is legitimately finer than its input).
    """
    corner = scaling_corner(dim, k)
    root = Key.root(dim)
    if root not in tree:
        tree[root] = FunctionNode(coeffs=None)
    out = FunctionTree(dim)
    stack: list[tuple[Key, np.ndarray]] = [(root, np.zeros((k,) * dim))]
    while stack:
        key, s_parent = stack.pop()
        node = tree.get(key)
        has_kids = node.has_children if node is not None else False
        v = None if node is None else node.coeffs
        if not has_kids and v is None:
            out.ensure_path(key).coeffs = s_parent
            continue
        full = np.zeros((2 * k,) * dim)
        if v is not None:
            full += v
        full[corner] += s_parent
        if not has_kids:
            detail = full.copy()
            detail[corner] = 0.0
            if float(np.linalg.norm(detail)) <= thresh * 1e-2:
                out.ensure_path(key).coeffs = full[corner].copy()
                continue
        uu = transform(full, filter_.hg)
        out.ensure_path(key).has_children = True
        for child in key.children():
            bits = tuple(t & 1 for t in child.translation)
            block = uu[child_block(bits, k)].copy()
            stack.append((child, block))
    fn = MultiresolutionFunction(
        dim, k, out, thresh=thresh, form=RECONSTRUCTED, truncate_mode=truncate_mode
    )
    return fn


class CoulombOperator(GaussianConvolution):
    """The ``1/r`` convolution used by the paper's *Coulomb* application.

    The Gaussian fit resolves radii from ``r_lo`` (default tied to the
    precision: finer precision needs sharper Gaussians and therefore a
    larger separation rank M, exactly the paper's regime where
    ``M ~ 100``).
    """

    def __init__(
        self,
        dim: int = 3,
        k: int = 10,
        *,
        eps: float = 1e-8,
        r_lo: float | None = None,
        max_radius: int = 8,
    ):
        r_lo = r_lo if r_lo is not None else max(eps ** 0.5 * 1e-2, 1e-8)
        expansion = fit_inverse_r(eps, r_lo, math.sqrt(float(dim)))
        super().__init__(
            dim, k, expansion, thresh=eps, max_radius=max_radius
        )
        self.eps = eps
        self.r_lo = r_lo
