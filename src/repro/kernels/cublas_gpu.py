"""The cuBLAS-style baseline: one GEMM kernel launch per multiplication.

"A traditional approach would implement these computational steps by
launching a separate matrix multiplication kernel for each step.
However, launching a separate kernel for each computational step cannot
take advantage of shared memory locality ... also, the CUDA kernel
launch overhead is an issue, since for small matrix multiplications
there is too little computation to hide the kernel launch overhead."

Each step therefore costs a launch plus occupancy-limited execution
across the whole device (cuBLAS spreads one GEMM over all 16 SMs).
Streams overlap the launches of *independent* steps, but steps within
one task form a dependent chain, so only cross-task concurrency helps —
modeled by dividing by the stream count capped at the device's
concurrent-kernel limit.

For large matrices (the 4-D TDSE regime) the per-call utilisation
approaches the device's GEMM peak and this baseline wins — the regime
split of Figures 5-6.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.gpu_model import GpuModel
from repro.kernels.base import (
    ComputeKernel,
    KernelTiming,
    evaluate_formula,
    formula_payload,
)
from repro.runtime.task import BatchStats, WorkItem


class CublasKernel(ComputeKernel):
    """Per-step GEMM execution model (cuBLAS 4.1 style)."""

    name = "cublas-dgemm"

    def __init__(self, model: GpuModel):
        self.model = model

    # -- numerics --------------------------------------------------------------

    def run_item(self, item: WorkItem) -> np.ndarray | None:
        """Evaluate Formula 1 (cuBLAS differs in cost, not arithmetic)."""
        payload = formula_payload(item)
        # each step is a separate DGEMM call on the modeled device; the
        # arithmetic itself is the shared Formula 1 evaluator
        return None if payload is None else evaluate_formula(payload)

    # -- timing ---------------------------------------------------------------------

    def batch_timing(self, stats: BatchStats, parallelism: int) -> KernelTiming:
        """Batch duration with one DGEMM launch per contraction step."""
        if stats.n_items == 0 or stats.steps == 0:
            return KernelTiming(0.0, 0, 0)
        # reconstruct the GEMM shape (rows, q) x (q, q)
        rows = max(1, stats.step_rows)
        q = max(1, stats.step_q)
        one_step = self.model.gemm_seconds(rows, q, q)
        # cuBLAS spreads every GEMM across the whole device, so kernels in
        # different streams cannot genuinely overlap — streams only hide a
        # little of the launch latency.  `parallelism` is therefore unused
        # beyond guarding the signature; the paper's cuBLAS runs show no
        # stream scaling either.
        del parallelism
        seconds = stats.steps * one_step
        return KernelTiming(
            seconds=seconds,
            flops=stats.flops,
            launches=stats.steps,
        )
