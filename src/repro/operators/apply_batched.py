"""The hybrid CPU-GPU ``Apply`` (paper Algorithms 3-6).

The reference ``Apply`` walks the tree and computes each contribution
inline.  This version restructures the same work for the batching
runtime, exactly as the paper's Algorithm 3 does:

- ``integral_preprocess`` (Algorithm 4): for one (source node,
  displacement) pair, look up the ``h`` operator matrices (from the
  operator's write-once CPU cache) and emit a batched work item.  The
  lookup is one per task: every task with the same ``(level, delta,
  kept terms, kind)`` shares one read-only set of per-axis factor stacks
  (:meth:`GaussianConvolution.formula_terms`);
- ``integral_compute`` (Algorithm 5): Formula 1 on the batched inputs —
  executed by whichever kernel (CPU / custom GPU / cuBLAS) the
  dispatcher sends the item to;
- ``integral_postprocess`` (Algorithm 6): accumulate the result tensor
  into the neighbour node of the result tree.

The telescoping correction (subtracting the scaling->scaling part at
levels > 0) is expressed as a *second kind* of compute task acting on the
``k^d`` scaling corner with negated coefficients, so both kinds are plain
Formula 1 batches and the accumulation stays commutative.

Numerics are identical to :meth:`GaussianConvolution.apply` up to the
screening granularity; the test suite asserts agreement to the operator
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OperatorError
from repro.mra.function import MultiresolutionFunction, scaling_corner
from repro.mra.key import Key
from repro.mra.tree import FunctionTree
from repro.operators.convolution import (
    ApplyStats,
    GaussianConvolution,
    _NORM_FLOOR,
    sum_down_ns,
)
from repro.kernels.base import FormulaPayload
from repro.runtime.node import NodeRuntime, NodeTimeline
from repro.runtime.task import HybridTask, TaskKind, WorkItem


@dataclass
class BatchedApplyResult:
    """Everything one hybrid ``Apply`` run produces."""

    function: MultiresolutionFunction
    timeline: NodeTimeline
    stats: ApplyStats


class BatchedApply:
    """Drives one ``Apply`` through the hybrid batching runtime."""

    def __init__(self, op: GaussianConvolution, runtime: NodeRuntime):
        self.op = op
        self.runtime = runtime

    # -- task generation (Algorithm 3 lines 1-6) -----------------------------------

    def generate_tasks(
        self, src: MultiresolutionFunction, result_tree: FunctionTree,
        stats: ApplyStats, source_log: list | None = None,
    ) -> list[HybridTask]:
        """Emit one preprocess/compute/postprocess task per contribution.

        ``source_log``, if given, receives the source tree key of every
        emitted task (same order) — the distributed Apply uses it to
        route tasks to their owner ranks.
        """
        op = self.op
        tol = op.thresh
        corner = scaling_corner(op.dim, op.k)
        tasks: list[HybridTask] = []
        for key, node in src.tree.by_level():
            if node.coeffs is None:
                continue
            stats.source_nodes += 1
            chat = op._combined(node)
            cnorm = float(np.linalg.norm(chat))
            if cnorm == 0.0:
                continue
            disps = op.level_displacements(key.level)
            tol_task = tol / max(1, len(disps))
            for delta, opnorm in disps:
                if opnorm * cnorm < tol_task:
                    stats.screened_displacements += 1
                    continue
                neighbor = key.neighbor(delta)
                if neighbor is None:
                    continue
                mu_tol = tol_task / (max(cnorm, _NORM_FLOOR) * max(1, op.expansion.rank))
                norms_mu = op.term_norms(key.level, delta, subtracted=key.level > 0)
                keep = np.nonzero(norms_mu > mu_tol)[0]
                if keep.size == 0:
                    continue
                stats.record_task(key.level)
                stats.mu_applications += int(keep.size)
                tasks.append(
                    self._make_task(
                        key.level, delta, chat, keep, neighbor, result_tree, ns=True
                    )
                )
                if source_log is not None:
                    source_log.append(key)
                if key.level > 0:
                    tasks.append(
                        self._make_task(
                            key.level,
                            delta,
                            chat[corner],
                            keep,
                            neighbor,
                            result_tree,
                            ns=False,
                        )
                    )
                    if source_log is not None:
                        source_log.append(key)
        return tasks

    def _make_task(
        self,
        level: int,
        delta: tuple[int, ...],
        s: np.ndarray,
        keep: np.ndarray,
        neighbor: Key,
        result_tree: FunctionTree,
        *,
        ns: bool,
    ) -> HybridTask:
        op = self.op
        q = s.shape[0]
        dim = op.dim
        kind = TaskKind(
            "integral_compute" if ns else "integral_compute_corner",
            (level, q, dim),
        )
        steps = int(keep.size) * dim  # one mtxmq, and one block, per step
        rows = q ** (dim - 1)
        flops = steps * 2 * rows * q * q
        corner = scaling_corner(dim, op.k)

        def preprocess() -> WorkItem:
            # Algorithm 4: obtain the h 2-D tensors (write-once CPU cache);
            # tasks of one signature share the stacked blocks
            terms = op.formula_terms(level, delta, keep, ns=ns)
            payload = FormulaPayload(s=s, stacks=terms.stacks, coeffs=terms.coeffs)
            return WorkItem(
                kind=kind,
                payload=payload,
                flops=flops,
                input_bytes=s.nbytes,
                output_bytes=s.nbytes,
                block_keys=terms.block_keys,
                block_bytes=steps * q * q * 8,
                steps=steps,
                step_rows=rows,
                step_q=q,
                on_complete=postprocess,
            )

        def postprocess(result: np.ndarray) -> None:
            # Algorithm 6: accumulate into the neighbour of the result tree.
            node = result_tree.ensure_path(neighbor)
            if ns:
                node.accumulate(result)
            else:
                full = np.zeros((2 * op.k,) * dim)
                full[corner] = result
                node.accumulate(full)

        return HybridTask(
            preprocess=preprocess,
            # input copy into the aggregation buffer plus per-block cache
            # lookups; the blocks themselves are not copied on the host
            pre_bytes=s.nbytes + 64 * steps,
            post_bytes=s.nbytes,
        )

    # -- the operator ------------------------------------------------------------------

    def apply(
        self, f: MultiresolutionFunction, *, copy_input: bool = True
    ) -> BatchedApplyResult:
        """Hybrid Apply: returns the result function plus the simulated
        timeline of the run."""
        if (f.dim, f.k) != (self.op.dim, self.op.k):
            raise OperatorError(
                f"operator (dim={self.op.dim}, k={self.op.k}) cannot act on "
                f"function (dim={f.dim}, k={f.k})"
            )
        stats = ApplyStats()
        src = f.copy() if copy_input else f
        src.nonstandard()
        result_tree = FunctionTree(self.op.dim)
        tasks = self.generate_tasks(src, result_tree, stats)
        timeline = self.runtime.execute(tasks)
        function = sum_down_ns(
            result_tree,
            dim=self.op.dim,
            k=self.op.k,
            filter_=self.op.filter,
            thresh=f.thresh,
            truncate_mode=f.truncate_mode,
        )
        return BatchedApplyResult(function=function, timeline=timeline, stats=stats)
