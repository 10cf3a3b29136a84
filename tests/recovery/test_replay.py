"""The crash → detect → restore → replay protocol (`run_with_recovery`)."""

import math
from dataclasses import replace

import pytest

import numpy as np

from repro.apps.coulomb import probe_item
from repro.errors import DataLossError, RecoveryConfigError
from repro.faults.injector import FaultInjector
from repro.faults.models import CheckpointCorruption, NodeCrash
from repro.lint.trace_check import verify_tracer
from repro.recovery import (
    CheckpointCostModel,
    EveryNBatches,
    FixedInterval,
    RecoveryConfig,
    run_with_recovery,
)
from repro.runtime.task import HybridTask
from repro.runtime.trace import Tracer
from tests.conftest import make_runtime, payload_from_factors

#: cost model cheap enough that every-other-batch checkpointing commits
#: comfortably between the crashes these tests schedule
FAST_WRITES = CheckpointCostModel(drain_gbps=4.0)


def tasks(n: int = 120) -> list[HybridTask]:
    proto = probe_item(3, 10, 100)
    return [
        HybridTask(
            work=replace(proto),
            pre_bytes=proto.input_bytes,
            post_bytes=proto.output_bytes,
        )
        for _ in range(n)
    ]


def payload_tasks(n: int = 60) -> list[HybridTask]:
    """Tasks whose items carry numeric payloads, so ``on_complete``
    consumers actually receive results."""
    proto = probe_item(2, 6, 3)
    rng = np.random.default_rng(42)
    q, dim, rank = 12, 2, 3
    out = []
    for _ in range(n):
        payload = payload_from_factors(
            s=rng.standard_normal((q,) * dim),
            factors=[
                tuple(rng.standard_normal((q, q)) for _ in range(dim))
                for _ in range(rank)
            ],
            coeffs=rng.standard_normal(rank),
        )
        out.append(
            HybridTask(
                work=replace(proto, payload=payload),
                pre_bytes=proto.input_bytes,
                post_bytes=proto.output_bytes,
            )
        )
    return out


def factory():
    return make_runtime("hybrid", max_batch_size=20)


def config(policy=None, **kwargs):
    kwargs.setdefault("cost_model", FAST_WRITES)
    return RecoveryConfig(policy=policy or EveryNBatches(2), **kwargs)


def baseline_seconds(n: int = 120) -> float:
    return factory().execute(tasks(n)).total_seconds


class TestConfigValidation:
    def test_policy_type_enforced(self):
        with pytest.raises(RecoveryConfigError):
            RecoveryConfig(policy="often")

    def test_negative_timeout_and_budget_rejected(self):
        with pytest.raises(RecoveryConfigError):
            RecoveryConfig(policy=EveryNBatches(1), failure_detection_timeout=-1)
        with pytest.raises(RecoveryConfigError):
            RecoveryConfig(policy=EveryNBatches(1), max_restarts=-1)

    def test_tasks_without_work_items_rejected(self):
        bare = [HybridTask(work=None, pre_bytes=10, post_bytes=10)]
        with pytest.raises(RecoveryConfigError):
            run_with_recovery(factory, bare, config=config())


class TestHappyPath:
    def test_no_injector_runs_one_segment(self):
        run = run_with_recovery(factory, tasks(), config=config())
        assert run.restarts == 0
        assert len(run.segments) == 1
        assert run.timeline.n_restores == 0

    def test_armed_idle_is_bit_identical(self):
        # a never-firing policy adds no events: same makespan, bit for bit
        run = run_with_recovery(
            factory, tasks(), config=config(FixedInterval(math.inf))
        )
        assert run.timeline.total_seconds == baseline_seconds()

    def test_results_delivered_exactly_once(self):
        work = payload_tasks()
        seen = []
        consumer = seen.append
        for t in work:
            t.work.on_complete = consumer
        base = factory().execute(payload_tasks()).total_seconds
        injector = FaultInjector(0, [NodeCrash(rank=0, at=0.5 * base)])
        run = run_with_recovery(
            factory, work, config=config(), injector=injector
        )
        # the crash replayed accumulated items, yet each consumer sees
        # its result exactly once
        assert run.restarts == 1
        assert len(seen) == len(work)
        # original consumers are restored after the run
        assert all(t.work.on_complete is consumer for t in work)


class TestCrashAndReplay:
    def crash_at(self, *fractions, n=120):
        base = baseline_seconds(n)
        return FaultInjector(
            0, [NodeCrash(rank=0, at=f * base) for f in fractions]
        )

    def test_single_crash_recovers_all_items(self):
        tracer = Tracer()
        run = run_with_recovery(
            factory,
            tasks(),
            config=config(),
            injector=self.crash_at(0.5),
            tracer=tracer,
        )
        verify_tracer(tracer)
        assert run.restarts == 1
        assert len(run.segments) == 2
        assert run.timeline.n_restores == 1
        assert run.timeline.total_seconds > baseline_seconds()

    def test_crash_pays_detection_and_restore(self):
        cfg = config(failure_detection_timeout=0.05)
        run = run_with_recovery(
            factory, tasks(), config=cfg, injector=self.crash_at(0.5)
        )
        # the run is at least a makespan plus the detection window long
        assert run.timeline.total_seconds > baseline_seconds() + 0.05

    def test_checkpoints_bound_the_replay(self):
        inj = self.crash_at(0.6)
        with_ckpt = run_with_recovery(
            factory, tasks(), config=config(EveryNBatches(1)), injector=inj
        )
        without = run_with_recovery(
            factory,
            tasks(),
            config=config(FixedInterval(math.inf)),
            injector=inj,
        )
        # n_replayed counts work done before the crash and done again;
        # checkpoints shrink that window (here to nothing: every batch
        # was durable), never-checkpoint replays every accumulate the
        # crash had banked
        assert (
            with_ckpt.timeline.n_replayed_items
            < without.timeline.n_replayed_items
        )
        assert (
            without.timeline.n_replayed_items
            == without.timeline.n_rolled_back_items
        )

    def test_cascaded_crashes_within_budget(self):
        # never checkpoint: each restart re-executes from scratch and
        # takes a full makespan, so every scheduled crash lands
        tracer = Tracer()
        run = run_with_recovery(
            factory,
            tasks(),
            config=config(FixedInterval(math.inf), max_restarts=3),
            injector=self.crash_at(0.4, 0.9, 1.4),
            tracer=tracer,
        )
        verify_tracer(tracer)
        assert run.restarts == 3

    def test_budget_exhaustion_raises_data_loss(self):
        with pytest.raises(DataLossError) as err:
            run_with_recovery(
                factory,
                tasks(),
                config=config(FixedInterval(math.inf), max_restarts=1),
                injector=self.crash_at(0.4, 1.1),
            )
        # never checkpointed: every item is lost
        assert err.value.lost_items == len(tasks())

    def test_crash_schedule_missing_the_rank_is_a_clean_run(self):
        inj = FaultInjector(0, [NodeCrash(rank=7, at=0.01)])
        run = run_with_recovery(
            factory, tasks(), config=config(), injector=inj
        )
        assert run.restarts == 0


class TestCorruptedLineage:
    def test_restore_walks_past_corrupted_snapshots(self):
        base = baseline_seconds()
        inj = FaultInjector(
            0,
            [
                NodeCrash(rank=0, at=0.7 * base),
                CheckpointCorruption(rate=1.0),
            ],
        )
        tracer = Tracer()
        run = run_with_recovery(
            factory,
            tasks(),
            config=config(EveryNBatches(1)),
            injector=inj,
            tracer=tracer,
        )
        verify_tracer(tracer)
        # every snapshot corrupted: the walk falls back to from-scratch
        restores = [r for r in tracer.log if r.op == "restore"]
        assert [r.kind for r in restores] == ["-1"]
        # nothing was durable, so every banked accumulate is redone
        assert run.timeline.n_replayed_items > 0
        assert (
            run.timeline.n_replayed_items
            == run.timeline.n_rolled_back_items
        )
        assert any(ck.corrupted for ck in run.store.checkpoints)

    def test_dead_branch_stays_in_store_after_partial_corruption(self):
        # corrupt only a window late in the run: the chain walk stops at
        # the newest clean ancestor and later snapshots become a branch
        base = baseline_seconds()
        inj = FaultInjector(
            0,
            [
                NodeCrash(rank=0, at=0.8 * base),
                CheckpointCorruption(rate=1.0, start=0.5 * base),
            ],
        )
        tracer = Tracer()
        run = run_with_recovery(
            factory,
            tasks(),
            config=config(EveryNBatches(1)),
            injector=inj,
            tracer=tracer,
        )
        verify_tracer(tracer)
        corrupted = {ck.seq for ck in run.store.checkpoints if ck.corrupted}
        assert corrupted, "the corruption window must cover some snapshot"
        # the walk stopped at the newest *clean* ancestor, written
        # before the corruption window opened
        (restore,) = [r for r in tracer.log if r.op == "restore"]
        target = int(restore.kind)
        assert target >= 0
        assert not run.store.get(target).corrupted
        assert run.store.get(target).at < 0.5 * base
        # the rejected snapshots survive in the store as a dead branch
        # off the final lineage
        final = {ck.seq for ck in run.store.lineage(run.store.frontier_seq)}
        dead = {ck.seq for ck in run.store.checkpoints} - final
        assert dead
