"""Recovery determinism: crashes must not change a single bit.

The headline guarantee of `repro.recovery`: with recovery enabled, any
seeded crash schedule (within the restart budget) yields accumulated
results *bit-identical* to the fault-free run — every lost window is
re-executed, nothing is dropped, nothing double-counts.  And recovery
that is armed but never fires leaves the fault-free timeline untouched.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.apps.coulomb import probe_item
from repro.apps.workloads import SyntheticApplyWorkload
from repro.cluster.simulation import ClusterSimulation
from repro.dht.process_map import HashProcessMap
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

#: the payload workload's makespan is ~17 ms, so detection/restart
#: charges are scaled down to stay proportionate
COST = CheckpointCostModel(drain_gbps=4.0, restart_seconds=1e-4)
DETECT = 1e-4


def payload_tasks(n: int = 60, seed: int = 42) -> list[HybridTask]:
    proto = probe_item(2, 6, 3)
    rng = np.random.default_rng(seed)
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


def collect_results(injector=None, policy=None):
    """Run under recovery and return results in task order."""
    tasks = payload_tasks()
    results: dict[int, np.ndarray] = {}
    for idx, t in enumerate(tasks):
        t.work.on_complete = (
            lambda out, i=idx: results.__setitem__(i, out)
        )
    tracer = Tracer()
    run = run_with_recovery(
        factory,
        tasks,
        config=RecoveryConfig(
            policy=policy or EveryNBatches(2),
            cost_model=COST,
            failure_detection_timeout=DETECT,
            max_restarts=6,
        ),
        injector=injector,
        tracer=tracer,
    )
    verify_tracer(tracer)
    assert len(results) == len(tasks)
    return run, [results[i] for i in range(len(tasks))], tracer


def trace_shape(tracer: Tracer):
    return [(r.op, r.at, r.kind, len(r.ids)) for r in tracer.log]


class TestBitIdenticalResults:
    def test_crash_schedule_reproduces_fault_free_bits(self):
        _, clean, _ = collect_results()
        base = factory().execute(payload_tasks()).total_seconds
        injector = FaultInjector(
            3,
            [
                NodeCrash(rank=0, at=0.35 * base),
                NodeCrash(rank=0, at=0.6 * base),
            ],
        )
        run, recovered, _ = collect_results(injector=injector)
        assert run.restarts == 2
        for a, b in zip(clean, recovered):
            assert a.tobytes() == b.tobytes()

    def test_corrupted_checkpoints_still_bit_identical(self):
        _, clean, _ = collect_results()
        base = factory().execute(payload_tasks()).total_seconds
        injector = FaultInjector(
            5,
            [
                NodeCrash(rank=0, at=0.6 * base),
                CheckpointCorruption(rate=1.0),
            ],
        )
        run, recovered, _ = collect_results(injector=injector)
        assert run.restarts == 1
        for a, b in zip(clean, recovered):
            assert a.tobytes() == b.tobytes()

    def test_same_seed_same_timeline(self):
        base = factory().execute(payload_tasks()).total_seconds
        def crashy():
            return FaultInjector(7, [NodeCrash(rank=0, at=0.5 * base)])

        run_a, _, tracer_a = collect_results(injector=crashy())
        run_b, _, tracer_b = collect_results(injector=crashy())
        assert run_a.timeline.total_seconds == run_b.timeline.total_seconds
        assert trace_shape(tracer_a) == trace_shape(tracer_b)


class TestArmedIdle:
    def test_node_armed_idle_makespan_identical(self):
        baseline = factory().execute(payload_tasks()).total_seconds
        run, _, _ = collect_results(policy=FixedInterval(math.inf))
        assert run.timeline.total_seconds == baseline

    def test_cluster_armed_idle_makespan_identical(self):
        workload = SyntheticApplyWorkload(
            dim=3, k=10, rank=60, n_tasks=240, n_tree_leaves=64, seed=5
        )

        def simulate(**kwargs):
            sim = ClusterSimulation(
                4, HashProcessMap(4), mode="hybrid", **kwargs
            )
            return sim.run(workload.tasks)

        plain = simulate()
        armed = simulate(
            recovery=RecoveryConfig(policy=EveryNBatches(2), cost_model=COST),
            fault_injector=FaultInjector(9),  # no crash scheduled
        )
        assert armed.makespan_seconds == plain.makespan_seconds
        assert armed.total_restarts == 0
