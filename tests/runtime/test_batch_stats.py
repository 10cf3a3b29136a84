"""The one batch-statistics fold and the share stats a plan carries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.runtime.batching import Batch
from repro.runtime.dispatcher import (
    AdaptiveDispatcher,
    HybridDispatcher,
    StaticSplitDispatcher,
)
from repro.runtime.task import BatchStats, TaskKind, WorkItem

KIND = TaskKind("t", 0)

#: a small key alphabet, so keys are shared across items and repeat
#: inside one item
_keys = st.lists(st.sampled_from("abcdef"), max_size=5).map(tuple)

_items = st.lists(
    st.builds(
        WorkItem,
        kind=st.just(KIND),
        flops=st.integers(0, 50_000_000),
        input_bytes=st.integers(0, 100_000),
        output_bytes=st.integers(0, 100_000),
        block_keys=_keys,
        block_bytes=st.integers(0, 10_000),
        steps=st.integers(0, 400),
        step_rows=st.integers(0, 400),
        step_q=st.integers(0, 20),
    ),
    max_size=30,
)


@given(_items)
@settings(max_examples=100, deadline=None)
def test_every_prefix_of_the_fold_is_the_stats_of_that_prefix(items):
    prefixes = BatchStats.fold(items)
    assert len(prefixes) == len(items) + 1
    for cut, stats in enumerate(prefixes):
        assert stats == BatchStats.of(items[:cut])
        assert stats.n_blocks == len({k for it in items[:cut] for k in it.block_keys})


def _dispatchers():
    cpu = CpuMtxmKernel(CpuModel(TITAN_NODE.cpu))
    gpu = CustomGpuKernel(GpuModel(TITAN_NODE.gpu))
    for mode in ("hybrid", "cpu", "gpu"):
        yield HybridDispatcher(cpu, gpu, cpu_threads=10, gpu_streams=5, mode=mode)
    for fraction in (0.0, 0.4, 1.0):
        yield StaticSplitDispatcher(
            cpu, gpu, cpu_fraction=fraction, cpu_threads=10, gpu_streams=5
        )
    yield AdaptiveDispatcher(cpu, gpu, cpu_threads=4, gpu_streams=2, gpu_scale=3.0)


@given(_items.filter(bool), st.sampled_from([None, 1e-4]))
@settings(max_examples=40, deadline=None)
def test_plan_carries_the_forward_fold_of_each_share(items, transfer_seconds):
    batch = Batch(kind=KIND, items=items, created_at=0.0, flushed_at=0.0)
    estimator = None if transfer_seconds is None else (lambda stats: transfer_seconds)
    for disp in _dispatchers():
        plan = disp.plan(batch, transfer_estimator=estimator)
        assert plan.cpu_items + plan.gpu_items == items
        assert plan.cpu_stats == BatchStats.of(plan.cpu_items)
        assert plan.gpu_stats == BatchStats.of(plan.gpu_items)


@pytest.mark.xfail(
    strict=True,
    reason="a key repeated inside one item is priced once per repetition; "
    "fixing it moves a pinned benchmark fingerprint (ROADMAP item 3)",
)
def test_key_repeated_inside_one_item_is_priced_once():
    stats = BatchStats.of([WorkItem(kind=KIND, block_keys=("x", "x"), block_bytes=800)])
    assert stats.unique_block_bytes == 400
