"""Property-based tests of the DES engine and the dispatcher split."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.runtime.batching import Batch
from repro.runtime.dispatcher import HybridDispatcher
from repro.runtime.events import Environment, Resource
from repro.runtime.task import BatchStats, TaskKind, WorkItem


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_resource_conservation(durations, capacity):
    """Random jobs through a resource: all complete, makespan is bounded
    by the list-scheduling guarantees, and occupancy never exceeds
    capacity."""
    env = Environment()
    res = Resource(env, capacity)
    completed = []
    peak = [0]

    def job(d):
        req = res.request()
        yield req
        peak[0] = max(peak[0], res.in_use)
        yield env.timeout(d)
        res.release()
        completed.append(d)

    for d in durations:
        env.process(job(d))
    env.run()
    assert len(completed) == len(durations)
    assert peak[0] <= capacity
    total = sum(durations)
    longest = max(durations)
    # list scheduling bounds: work/capacity <= makespan <= work + longest
    assert env.now <= total + 1e-9
    assert env.now >= max(longest, total / capacity) - 1e-9


@given(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=15))
@settings(max_examples=50, deadline=None)
def test_parallel_timeouts_end_at_max(durations):
    env = Environment()

    def waiter(d):
        yield env.timeout(d)

    for d in durations:
        env.process(waiter(d))
    env.run()
    assert np.isclose(env.now, max(durations))


def _item(flops: int) -> WorkItem:
    return WorkItem(
        kind=TaskKind("t", 0),
        flops=flops,
        steps=30,
        step_rows=400,
        step_q=20,
        input_bytes=64_000,
        output_bytes=64_000,
    )


@given(
    st.lists(st.integers(1_000_000, 200_000_000), min_size=1, max_size=40),
    st.integers(1, 16),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_dispatcher_cut_is_optimal(flops_list, threads, streams):
    """The exhaustive search's cut matches brute-force minimisation of
    max(cpu(prefix), gpu(suffix)) over all cuts."""
    disp = HybridDispatcher(
        CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)),
        CustomGpuKernel(GpuModel(TITAN_NODE.gpu)),
        cpu_threads=threads,
        gpu_streams=streams,
        mode="hybrid",
    )
    items = [_item(f) for f in flops_list]
    batch = Batch(kind=items[0].kind, items=items, created_at=0.0, flushed_at=0.0)
    plan = disp.plan(batch)
    achieved = disp._split_seconds(
        BatchStats.of(plan.cpu_items), BatchStats.of(plan.gpu_items)
    )
    best = min(
        disp._split_seconds(BatchStats.of(items[:cut]), BatchStats.of(items[cut:]))
        for cut in range(len(items) + 1)
    )
    assert achieved <= best * (1.0 + 1e-9)


@given(st.integers(1, 200), st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_dispatcher_plan_partitions_items(n_items, _seed):
    disp = HybridDispatcher(
        CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)),
        CustomGpuKernel(GpuModel(TITAN_NODE.gpu)),
        cpu_threads=10,
        gpu_streams=5,
        mode="hybrid",
    )
    items = [_item(50_000_000) for _ in range(n_items)]
    batch = Batch(kind=items[0].kind, items=items, created_at=0.0, flushed_at=0.0)
    plan = disp.plan(batch)
    assert len(plan.cpu_items) + len(plan.gpu_items) == n_items
    assert 0.0 <= plan.cpu_fraction <= 1.0


@given(st.integers(1, 60))
@settings(max_examples=30, deadline=None)
def test_batch_stats_additive(n):
    items = [_item(1000 * (i + 1)) for i in range(n)]
    whole = BatchStats.of(items)
    first = BatchStats.of(items[: n // 2])
    second = BatchStats.of(items[n // 2 :])
    assert whole.flops == first.flops + second.flops
    assert whole.n_items == first.n_items + second.n_items
    assert whole.steps == first.steps + second.steps
