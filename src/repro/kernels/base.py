"""Kernel interface and the numeric payload format.

A :class:`FormulaPayload` is one Formula 1 evaluation: an input tensor
``s`` of shape ``(q,) * d``, per-rank-term factor matrices (already
oriented for :func:`repro.tensor.transform.transform_seq`, i.e. the
transpose of the operator blocks), and the rank coefficients.

:func:`evaluate_formula` is the one numeric evaluator of the three
kernels (the CPU kernel leaves it only for rank reduction).  It stages
the contraction one axis at a time, batched over the rank index, yet
performs per term the same ``mtxmq`` products and the same summation as
the per-term chain :meth:`FormulaPayload.reference_result`, so its
output equals the chain's bit for bit — the tests assert exact equality.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import TensorShapeError
from repro.runtime.task import BatchStats, WorkItem
from repro.tensor.flops import add_flops, mtxm_flops
from repro.tensor.transform import transform_seq


@dataclass
class FormulaPayload:
    """Numeric data of one Formula 1 work item.

    Attributes:
        s: input tensor, shape ``(q,) * d``.
        factors: ``factors[mu]`` is a tuple of ``d`` matrices applied to
            the successive dimensions (transform orientation).
        coeffs: the ``c_mu`` scalars.
    """

    s: np.ndarray
    factors: list[tuple[np.ndarray, ...]]
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if len(self.factors) != len(self.coeffs):
            raise TensorShapeError(
                f"{len(self.factors)} factor sets vs {len(self.coeffs)} coefficients"
            )

    @property
    def rank(self) -> int:
        """Separation rank M of the payload's operator expansion."""
        return len(self.factors)

    @property
    def dim(self) -> int:
        """Dimensionality d of the payload tensor."""
        return self.s.ndim

    def reference_result(self) -> np.ndarray:
        """Per-term ``mtxmq``-chain evaluation — ground truth in tests."""
        out = np.zeros_like(self.s)
        for c, hs in zip(self.coeffs, self.factors):
            out += c * transform_seq(self.s, hs)
        return out


def formula_payload(item: WorkItem) -> FormulaPayload | None:
    """The item's Formula 1 payload (None for cost-only items).

    Raises:
        TypeError: if the item carries any other kind of payload.
    """
    payload = item.payload
    if payload is None or isinstance(payload, FormulaPayload):
        return payload
    raise TypeError(f"unexpected payload type {type(payload)!r}")


def evaluate_formula(payload: FormulaPayload) -> np.ndarray:
    """Evaluate one Formula 1 payload, batched over the rank index.

    The NumPy analogue of the fused ``cu_mtxmq`` kernel: instead of
    ``M x d`` separate ``mtxmq`` calls, each axis is one stage — the M
    factor matrices of that axis are stacked into an ``(M, q, q)`` array
    and one ``np.matmul`` advances all M running tensors at once.  Every
    term still gets the same ``a.T @ b`` BLAS call as the ``mtxmq`` chain
    and the terms are accumulated in the same order, so the result is
    bit-for-bit identical to :meth:`FormulaPayload.reference_result`.
    FLOPs are credited exactly as the chain credits them.
    """
    s = payload.s
    out = np.zeros_like(s)
    m = payload.rank
    if m == 0:
        return out
    q = s.shape[0]
    rest = s.size // q
    # the first stage broadcasts the one input tensor over all M terms
    t = s.reshape(q, rest).T
    for axis in range(s.ndim):
        if axis:
            # rotate like mtxmq: the contracted index of each term's
            # (rest, q) result leads again, viewed transposed for a.T @ b
            t = t.reshape(m, q, rest).transpose(0, 2, 1)
        t = np.matmul(t, np.stack([hs[axis] for hs in payload.factors]))
        add_flops(m * mtxm_flops(rest, q, q), "mtxmq")
    for c, term in zip(payload.coeffs, t.reshape((m,) + s.shape)):
        out += c * term
    return out


@dataclass(frozen=True)
class KernelTiming:
    """Simulated cost of one batch on one kernel."""

    seconds: float
    flops: int
    launches: int

    def gflops(self) -> float:
        """Achieved GFLOPS implied by this timing (0 for zero time)."""
        if self.seconds <= 0:
            return 0.0
        return self.flops / self.seconds / 1e9


class ComputeKernel(abc.ABC):
    """A compute strategy: numeric execution plus a timing model."""

    name: str = "kernel"

    @abc.abstractmethod
    def batch_timing(self, stats: BatchStats, parallelism: int) -> KernelTiming:
        """Simulated duration of a batch at the given parallelism
        (CPU threads or CUDA streams)."""

    @abc.abstractmethod
    def run_item(self, item: WorkItem) -> np.ndarray | None:
        """Numerically execute one work item (None for cost-only items)."""
