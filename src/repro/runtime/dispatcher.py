"""The hybrid CPU/GPU dispatcher and the optimal-overlap split.

"Consider that a CPU-only run takes time m and a GPU-only run takes time
n.  The minimal computation time can be achieved by an optimal CPU-GPU
computation overlap ... minimizing ``max(m k, n (1 - k))`` with
``k in [0, 1]`` ... the optimal CPU-GPU work overlap is achieved when
``m k = n (1 - k)``, so ``k = n / (m + n)``.  The minimal runtime is thus
``m n / (m + n)``." (paper, Section II-A)

:class:`HybridDispatcher` estimates ``m`` and ``n`` for a flushed batch
from the kernel cost models (including the GPU's transfer cost) and
splits the items by cumulative FLOPs as close to the optimal fraction as
the granularity allows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RuntimeConfigError
from repro.kernels.base import ComputeKernel
from repro.runtime.batching import Batch
from repro.runtime.task import BatchStats, WorkItem

MODES = ("cpu", "gpu", "hybrid")


def optimal_split(m: float, n: float) -> float:
    """Fraction of work sent to the CPU: ``k = n / (m + n)``."""
    if m < 0 or n < 0 or m + n == 0:
        raise RuntimeConfigError(f"invalid per-device times m={m}, n={n}")
    return n / (m + n)


def overlap_time(m: float, n: float) -> float:
    """The paper's minimal hybrid runtime ``m n / (m + n)``."""
    if m < 0 or n < 0:
        raise RuntimeConfigError(f"invalid per-device times m={m}, n={n}")
    if m + n == 0:
        return 0.0
    return m * n / (m + n)


@dataclass
class DispatchPlan:
    """The dispatcher's decision for one batch.

    ``cpu_stats`` and ``gpu_stats`` aggregate the two shares (each the
    forward fold of its items), so the node pipeline never re-folds
    them.
    """

    cpu_items: list[WorkItem]
    gpu_items: list[WorkItem]
    est_cpu_seconds: float  # m, for the whole batch
    est_gpu_seconds: float  # n, for the whole batch
    cpu_fraction: float
    cpu_stats: BatchStats
    gpu_stats: BatchStats


class HybridDispatcher:
    """Splits flushed batches between the CPU threads and the GPU.

    Args:
        cpu_kernel / gpu_kernel: timing + numeric kernels per device.
        cpu_threads: CPU threads available for *compute* tasks.
        gpu_streams: concurrent CUDA streams.
        mode: "cpu" (everything on CPU), "gpu" (all compute on the GPU),
            or "hybrid" (optimal-overlap split).

    A dispatcher may be shared between nodes, so the node's PCIe
    transfer estimator is passed per :meth:`plan` call rather than held
    by the instance.
    """

    def __init__(
        self,
        cpu_kernel: ComputeKernel,
        gpu_kernel: ComputeKernel,
        *,
        cpu_threads: int,
        gpu_streams: int,
        mode: str = "hybrid",
    ):
        if mode not in MODES:
            raise RuntimeConfigError(f"unknown dispatch mode {mode!r}")
        if cpu_threads < 1 or gpu_streams < 1:
            raise RuntimeConfigError(
                f"cpu_threads={cpu_threads} and gpu_streams={gpu_streams} must be >= 1"
            )
        self.cpu_kernel = cpu_kernel
        self.gpu_kernel = gpu_kernel
        self.cpu_threads = cpu_threads
        self.gpu_streams = gpu_streams
        self.mode = mode
        # calibration multipliers applied to the raw cost-model estimates;
        # 1.0 here, adjusted online by AdaptiveDispatcher
        self.cpu_time_scale = 1.0
        self.gpu_time_scale = 1.0

    # -- device times -------------------------------------------------------------

    def cpu_seconds(self, stats: BatchStats) -> float:
        """Raw (uncalibrated) cost-model time of ``stats`` on the CPU
        compute threads — also what the node charges the CPU share."""
        return self.cpu_kernel.batch_timing(stats, self.cpu_threads).seconds

    def gpu_seconds(self, stats: BatchStats, transfer_estimator=None) -> float:
        """Raw (uncalibrated) GPU-side time of ``stats``: the kernel on
        the streams plus, if given, ``transfer_estimator(stats)`` seconds
        of PCIe input transfer.  Without an estimator this is the kernel
        time the node charges the GPU share."""
        seconds = self.gpu_kernel.batch_timing(stats, self.gpu_streams).seconds
        if transfer_estimator is not None:
            seconds += transfer_estimator(stats)
        return seconds

    def device_estimates(
        self, stats: BatchStats, transfer_estimator=None
    ) -> tuple[float, float]:
        """(m, n): calibrated CPU-only and GPU-only durations of ``stats``."""
        return (
            self.cpu_seconds(stats) * self.cpu_time_scale,
            self.gpu_seconds(stats, transfer_estimator) * self.gpu_time_scale,
        )

    def _split_seconds(
        self, cpu_stats: BatchStats, gpu_stats: BatchStats, transfer_estimator=None
    ) -> float:
        """Calibrated time of a split: the slower share (an empty share
        costs nothing)."""
        m = n = 0.0
        if cpu_stats.n_items:
            m = self.cpu_seconds(cpu_stats) * self.cpu_time_scale
        if gpu_stats.n_items:
            n = self.gpu_seconds(gpu_stats, transfer_estimator) * self.gpu_time_scale
        return max(m, n)

    # -- planning ---------------------------------------------------------------

    def plan(self, batch: Batch, transfer_estimator=None) -> DispatchPlan:
        """Split one flushed batch per the configured mode (cpu/gpu/hybrid)."""
        items = batch.items
        prefixes = BatchStats.fold(items)
        if self.mode == "cpu":
            return self._plan_at(items, prefixes, len(items), transfer_estimator, 1.0)
        if self.mode == "gpu":
            return self._plan_at(items, prefixes, 0, transfer_estimator, 0.0)
        suffixes = BatchStats.fold(reversed(items))
        cut = self._best_cut(prefixes, suffixes, transfer_estimator)
        return self._plan_at(items, prefixes, cut, transfer_estimator)

    def _plan_at(
        self, items, prefixes, cut, transfer_estimator, cpu_fraction=None
    ) -> DispatchPlan:
        """The plan that sends ``items[:cut]`` to the CPU.  Without an
        explicit ``cpu_fraction`` it reports the share's FLOP fraction,
        or its item fraction for all-zero-FLOP batches (data-only kinds
        must still report where their items went)."""
        whole, cpu_stats = prefixes[-1], prefixes[cut]
        m, n = self.device_estimates(whole, transfer_estimator)
        if cpu_fraction is None:
            cpu_fraction = (
                cpu_stats.flops / whole.flops if whole.flops
                else cut / len(items) if items else 0.0
            )
        gpu_items = list(items[cut:])
        gpu_stats = whole if cut == 0 else BatchStats.of(gpu_items)
        return DispatchPlan(
            list(items[:cut]), gpu_items, m, n, cpu_fraction, cpu_stats, gpu_stats
        )

    # -- split search ----------------------------------------------------------

    def _best_cut(
        self,
        prefixes: list[BatchStats],
        suffixes: list[BatchStats],
        transfer_estimator=None,
    ) -> int:
        """Cut index minimising ``max(cpu(items[:cut]), gpu(items[cut:]))``.

        This realises the paper's optimal overlap against the *actual*
        batch timing functions rather than the linear ``k = n/(m+n)``
        idealisation — in particular it accounts for CPU thread
        starvation when the CPU's share would be only a few items (one
        CPU task is single-threaded), in which case it keeps the CPU
        share small or empty.  The cost is not monotone in the cut, so
        the search is exhaustive: it evaluates all n+1 cuts from the
        prefix folds of the items (``prefixes``) and of the reversed
        items (``suffixes``), built once each — O(n + total block keys)
        aggregation plus 2n cost-model calls.  A cut's GPU estimate
        comes from the reversed fold, which may price shared blocks
        differently from the forward fold the plan reports for the
        share (ROADMAP item 3).
        """
        n = len(prefixes) - 1
        best_cut = 0
        best_time = None
        for cut in range(n + 1):
            t = self._split_seconds(prefixes[cut], suffixes[n - cut], transfer_estimator)
            if best_time is None or t < best_time:
                best_time = t
                best_cut = cut
        return best_cut

    @staticmethod
    def _flops_cut(items: list[WorkItem], cpu_fraction: float) -> int:
        """Cut giving the CPU a prefix of ``cpu_fraction`` of the FLOPs
        (stable order; by item count for all-zero-FLOP batches)."""
        total = sum(it.flops for it in items)
        if total == 0:
            return int(round(cpu_fraction * len(items)))
        target = cpu_fraction * total
        acc = 0
        cut = 0
        for i, it in enumerate(items):
            if acc + it.flops / 2.0 > target:
                break
            acc += it.flops
            cut = i + 1
        return cut


class StaticSplitDispatcher(HybridDispatcher):
    """A dispatcher with a developer-chosen fixed CPU fraction.

    The paper's extensions let the algorithm developer set the ratio by
    hand: "by knowing the relative performance of the GPU code compared
    to the CPU code for a certain operator, a MADNESS developer can
    decide what is the ratio of CPU to GPU work."  This variant applies
    that fixed fraction to every batch — useful as a baseline against
    the measuring dispatcher, and as the paper's actual deployment mode.
    """

    def __init__(
        self,
        cpu_kernel: ComputeKernel,
        gpu_kernel: ComputeKernel,
        *,
        cpu_fraction: float,
        cpu_threads: int,
        gpu_streams: int,
    ):
        if not 0.0 <= cpu_fraction <= 1.0:
            raise RuntimeConfigError(
                f"cpu_fraction must be in [0, 1], got {cpu_fraction}"
            )
        super().__init__(
            cpu_kernel,
            gpu_kernel,
            cpu_threads=cpu_threads,
            gpu_streams=gpu_streams,
            mode="hybrid",
        )
        self.cpu_fraction = cpu_fraction

    def plan(self, batch: Batch, transfer_estimator=None) -> DispatchPlan:
        """Split the batch at the fixed developer-chosen CPU fraction."""
        items = batch.items
        cut = self._flops_cut(items, self.cpu_fraction)
        return self._plan_at(
            items, BatchStats.fold(items), cut, transfer_estimator,
            self.cpu_fraction,
        )


class AdaptiveDispatcher(HybridDispatcher):
    """A hybrid dispatcher that recalibrates its cost model online.

    The cost-model estimates ``m`` and ``n`` are multiplied by
    calibration scales that an EWMA of *measured* simulated batch
    durations keeps pulling toward reality:

        ``scale <- (1 - alpha) * scale + alpha * measured / estimated``

    where ``estimated`` is the raw (unscaled) cost-model prediction for
    the share actually dispatched and ``measured`` is the simulated
    service time it actually took (PCIe transfers included on the GPU
    side).  This is the hybrid-execution feedback loop of Rengasamy &
    Vadhiyar: a miscalibrated model (wrong CPU flops rate, stale
    transfer estimate, cache effects the static model cannot see)
    converges within a few batches instead of skewing every split.

    Args:
        cpu_scale / gpu_scale: initial calibration (1.0 = trust the
            model; 2.0 = "the CPU is twice as slow as the model says").
        ewma_alpha: feedback smoothing factor in (0, 1]; higher adapts
            faster but follows noise.
    """

    def __init__(
        self,
        cpu_kernel: ComputeKernel,
        gpu_kernel: ComputeKernel,
        *,
        cpu_threads: int,
        gpu_streams: int,
        cpu_scale: float = 1.0,
        gpu_scale: float = 1.0,
        ewma_alpha: float = 0.5,
    ):
        if cpu_scale <= 0 or gpu_scale <= 0:
            raise RuntimeConfigError(
                f"calibration scales must be positive: cpu={cpu_scale}, "
                f"gpu={gpu_scale}"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise RuntimeConfigError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}"
            )
        super().__init__(
            cpu_kernel,
            gpu_kernel,
            cpu_threads=cpu_threads,
            gpu_streams=gpu_streams,
            mode="hybrid",
        )
        self.cpu_time_scale = cpu_scale
        self.gpu_time_scale = gpu_scale
        self.ewma_alpha = ewma_alpha
        #: (cpu_scale, gpu_scale) after each observation, oldest first
        self.history: list[tuple[float, float]] = []

    def observe(
        self,
        *,
        est_cpu_seconds: float = 0.0,
        measured_cpu_seconds: float = 0.0,
        est_gpu_seconds: float = 0.0,
        measured_gpu_seconds: float = 0.0,
    ) -> None:
        """Feed one batch's raw estimates and measured durations back.

        Estimates must be the *unscaled* cost-model predictions for the
        shares that actually ran; shares that did not run (zero
        estimate) leave their scale untouched.
        """
        a = self.ewma_alpha
        if est_cpu_seconds > 0 and measured_cpu_seconds > 0:
            ratio = measured_cpu_seconds / est_cpu_seconds
            self.cpu_time_scale = (1 - a) * self.cpu_time_scale + a * ratio
        if est_gpu_seconds > 0 and measured_gpu_seconds > 0:
            ratio = measured_gpu_seconds / est_gpu_seconds
            self.gpu_time_scale = (1 - a) * self.gpu_time_scale + a * ratio
        self.history.append((self.cpu_time_scale, self.gpu_time_scale))
