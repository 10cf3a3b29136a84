"""Tests for the pipelined node runtime: overlap, admission, feedback."""

import pytest

from repro.errors import RuntimeConfigError
from repro.hardware.specs import TITAN_NODE
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.runtime.dispatcher import AdaptiveDispatcher, HybridDispatcher
from repro.runtime.node import NodeRuntime
from repro.runtime.trace import Tracer
from tests.conftest import make_runtime
from tests.runtime.test_node_runtime import make_tasks


def make_pipeline_runtime(
    *,
    pipelined: bool = True,
    adaptive: bool = False,
    gpu_scale: float = 1.0,
    max_batch_size: int = 10,
    **kwargs,
) -> NodeRuntime:
    cpu = CpuMtxmKernel(CpuModel(TITAN_NODE.cpu))
    gpu = CustomGpuKernel(GpuModel(TITAN_NODE.gpu))
    if adaptive:
        dispatcher = AdaptiveDispatcher(
            cpu, gpu, cpu_threads=10, gpu_streams=5, gpu_scale=gpu_scale
        )
    else:
        dispatcher = HybridDispatcher(
            cpu, gpu, cpu_threads=10, gpu_streams=5, mode="hybrid"
        )
    return NodeRuntime(
        TITAN_NODE,
        dispatcher,
        flush_interval=0.005,
        max_batch_size=max_batch_size,
        pipelined=pipelined,
        **kwargs,
    )


def mixed_tasks(n):
    """Irregular stream: interleave a light and a heavy task shape so
    consecutive batches belong to kinds with very different weights."""
    light = make_tasks(n // 2, flops=8_000_000, q=16, rank=40)
    heavy = make_tasks(n - n // 2, flops=120_000_000, q=28, rank=80)
    out = []
    for a, b in zip(light, heavy):
        out.append(a)
        out.append(b)
    return out


def test_pipelined_strictly_faster_than_serialized():
    pipelined = make_pipeline_runtime(pipelined=True).execute(mixed_tasks(60))
    serialized = make_pipeline_runtime(pipelined=False).execute(mixed_tasks(60))
    assert pipelined.total_seconds < serialized.total_seconds


def test_pipelined_results_match_serialized():
    """Pipelining changes timing, never the work done."""
    p = make_pipeline_runtime(pipelined=True).execute(mixed_tasks(40))
    s = make_pipeline_runtime(pipelined=False).execute(mixed_tasks(40))
    assert p.n_cpu_items + p.n_gpu_items == 40
    assert s.n_cpu_items + s.n_gpu_items == 40
    assert p.bytes_from_gpu == s.bytes_from_gpu


def test_serialized_batches_do_not_overlap():
    tl = make_pipeline_runtime(pipelined=False).execute(mixed_tasks(40))
    spans = sorted(
        (b.dispatched_at, b.completed_at) for b in tl.metrics.batches
    )
    for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
        assert next_start >= prev_end - 1e-12


def test_pipelined_batches_do_overlap():
    tl = make_pipeline_runtime(pipelined=True).execute(mixed_tasks(40))
    spans = sorted(
        (b.dispatched_at, b.completed_at) for b in tl.metrics.batches
    )
    assert any(
        next_start < prev_end
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:])
    )


def test_gpu_and_pcie_overlap_in_trace():
    """Double buffering: a PCIe transfer runs while the GPU computes."""
    tracer = Tracer()
    rt = make_pipeline_runtime(pipelined=True)
    rt.tracer = tracer
    rt.execute(mixed_tasks(60))
    gpu = tracer.by_category("gpu")
    pcie = tracer.by_category("pcie")
    assert any(
        p.start < g.end and g.start < p.end and min(g.end, p.end) - max(g.start, p.start) > 0
        for g in gpu
        for p in pcie
    )


def test_normalized_busy_never_exceeds_makespan():
    tl = make_pipeline_runtime(pipelined=True).execute(mixed_tasks(60))
    assert tl.cpu_compute_busy <= tl.total_seconds + 1e-9
    assert tl.gpu_busy <= tl.total_seconds + 1e-9
    assert tl.pcie_to_busy <= tl.total_seconds + 1e-9
    assert tl.pcie_from_busy <= tl.total_seconds + 1e-9


def test_metrics_recorded_per_batch():
    tl = make_pipeline_runtime().execute(mixed_tasks(40))
    m = tl.metrics
    assert m.n_batches == tl.n_batches
    assert m.counters["items"] == 40
    assert m.counters["cpu_items"] == tl.n_cpu_items
    assert m.counters["gpu_items"] == tl.n_gpu_items
    for b in m.batches:
        assert b.completed_at >= b.dispatched_at
        assert b.n_cpu_items + b.n_gpu_items == b.n_items


def test_runtime_feeds_adaptive_dispatcher():
    """The node runtime closes the feedback loop: a miscalibrated GPU
    scale is pulled toward the measured ratio during the run."""
    rt = make_pipeline_runtime(adaptive=True, gpu_scale=2.0)
    rt.execute(make_tasks(200))
    assert rt.dispatcher.history, "runtime never called observe()"
    assert rt.dispatcher.gpu_time_scale < 2.0


def test_shared_dispatcher_not_mutated_by_execute():
    """Regression: execute() used to assign its transfer estimator onto
    the dispatcher, corrupting other runtimes sharing the instance."""
    rt = make_pipeline_runtime()
    before = dict(vars(rt.dispatcher))
    rt.execute(make_tasks(30))
    assert vars(rt.dispatcher) == before


def test_invalid_admission_window_rejected():
    cpu = CpuMtxmKernel(CpuModel(TITAN_NODE.cpu))
    gpu = CustomGpuKernel(GpuModel(TITAN_NODE.gpu))
    dispatcher = HybridDispatcher(cpu, gpu, cpu_threads=4, gpu_streams=2)
    with pytest.raises(RuntimeConfigError):
        NodeRuntime(TITAN_NODE, dispatcher, max_inflight_batches=0)


def test_block_wait_seconds_accounted():
    """In-flight block waits surface on the timeline (never negative)."""
    tl = make_runtime("hybrid").execute(make_tasks(150))
    assert tl.block_wait_seconds >= 0.0
    assert tl.block_wait_seconds == pytest.approx(
        sum(b.block_wait_seconds for b in tl.metrics.batches)
    )
