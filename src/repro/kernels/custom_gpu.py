"""The paper's custom fused CUDA kernel (``cu_mtxmq``), modeled.

One kernel launch per *task* executes all ``rank x dim`` multiplication
steps of Formula 1 without returning to the host: operands stay in the
shared memory / registers of 2-3 reserved SMs, consecutive steps are
separated by the Xiao-Feng inter-block barrier, and 5-8 instances run
concurrently in CUDA streams.  That is why it beats a per-step cuBLAS
call for small matrices — no per-step launch, no loss of locality — and
why it stops winning when the operands outgrow shared memory (4-D
tensors), where it pays a ``shared_fit`` efficiency penalty.

Rank reduction deliberately does **not** change the timing: "GPU
resources are allocated at CUDA kernel launch time ... the custom kernel
must reserve in advance the two or three SMs.  For some of the
multiplications, rank reduction allows the multiplication to be computed
by a single SM.  However, the GPU gains nothing from this."
"""

from __future__ import annotations

import math

import numpy as np

from repro.hardware.gpu_model import GpuModel
from repro.kernels.base import (
    ComputeKernel,
    KernelTiming,
    evaluate_formula,
    formula_payload,
)
from repro.runtime.task import BatchStats, WorkItem


def sm_per_instance_for(step_rows: int, step_q: int, shared_mem_per_sm: int) -> int:
    """SMs one fused-kernel instance reserves (the paper's "two or three").

    The instance keeps the input tensor, the running result and one
    operator matrix resident; the reservation is capped at 3 SMs — beyond
    that the kernel streams from L2/global memory instead (handled by the
    ``shared_fit`` penalty), because reserving more SMs per instance
    would destroy stream concurrency.
    """
    working_bytes = (2 * step_rows * step_q + step_q * step_q) * 8
    needed = max(1, math.ceil(working_bytes / shared_mem_per_sm))
    return min(3, max(2, needed)) if step_rows > 1 else 1


class CustomGpuKernel(ComputeKernel):
    """Fused batched small-tensor-contraction kernel model.

    Args:
        model: the GPU timing model.
        rank_reduction: attempt the rank-reduction optimisation on the
            device.  On Fermi this is a no-op by construction (SMs are
            reserved at launch) — the timing does not change, exactly as
            the paper measured.  On a device with CUDA 5 dynamic
            parallelism (``spec.dynamic_parallelism``, the paper's
            future work) the kernel sub-launches right-sized
            multiplications and the reduced FLOP count does pay off.
        reduction_factor: FLOP saving of rank reduction when it applies.
    """

    name = "cu_mtxmq"

    def __init__(
        self,
        model: GpuModel,
        *,
        rank_reduction: bool = False,
        reduction_factor: float = 2.2,
    ):
        self.model = model
        self.rank_reduction = rank_reduction
        self.reduction_factor = reduction_factor

    # -- numerics (identical arithmetic to the CPU kernel) -------------------------

    def run_item(self, item: WorkItem) -> np.ndarray | None:
        """Evaluate Formula 1 (fusion changes scheduling, not arithmetic)."""
        payload = formula_payload(item)
        # The fused kernel performs the same chain of contractions; the
        # shared evaluator runs all of a task's steps in one staged call,
        # as cu_mtxmq runs them in one launch.
        return None if payload is None else evaluate_formula(payload)

    # -- timing ---------------------------------------------------------------------

    def shared_fit(self, step_rows: int, step_q: int, sm_per_instance: int) -> float:
        """Efficiency multiplier for operands exceeding shared memory."""
        working_bytes = (2 * step_rows * step_q + step_q * step_q) * 8
        capacity = sm_per_instance * self.model.spec.shared_mem_per_sm
        if working_bytes <= capacity:
            return 1.0
        # Spill: part of every step streams from L2/global memory.  The
        # 0.45 exponent is calibrated against the Figure 6 crossover.
        return (capacity / working_bytes) ** 0.45

    def batch_timing(self, stats: BatchStats, parallelism: int) -> KernelTiming:
        """Batch duration for the fused kernel across CUDA streams."""
        if stats.n_items == 0:
            return KernelTiming(0.0, 0, 0)
        sm_per = sm_per_instance_for(
            stats.step_rows, stats.step_q, self.model.spec.shared_mem_per_sm
        )
        fit = self.shared_fit(stats.step_rows, stats.step_q, sm_per)
        flops = stats.flops
        if self.rank_reduction and self.model.spec.dynamic_parallelism:
            # Kepler future-work path: sub-kernels sized to the reduced
            # multiplications actually release the reserved resources.
            flops = int(flops / self.reduction_factor)
        per_item_flops = flops / stats.n_items
        per_item_steps = max(1, stats.steps // stats.n_items)
        instance = self.model.fused_instance_seconds(
            int(per_item_flops),
            per_item_steps,
            sm_per,
            q=max(1, stats.step_q),
            shared_fit=fit,
        )
        conc = self.model.concurrency(parallelism, sm_per)
        # instances pipeline across streams: the batch drains at `conc`
        # instances at a time (fractional conc models stream contention);
        # a batch cannot occupy more streams than it has items — this is
        # precisely why unbatched dispatch wastes the GPU
        conc = min(conc, float(stats.n_items))
        seconds = stats.n_items * instance / conc
        return KernelTiming(
            seconds=seconds,
            flops=flops,
            launches=stats.n_items,
        )
