"""Property test: arbitrary seeded crash+corruption schedules are safe.

For any seeded combination of crash instants and checkpoint-corruption
rate (within the restart budget), recovery must deliver every item's
result exactly once and reproduce the fault-free numbers bit for bit —
the trace checker's recovery ledger (invariant #7) audits the same runs
independently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.coulomb import probe_item
from repro.faults.injector import FaultInjector
from repro.faults.models import CheckpointCorruption, NodeCrash
from repro.lint.trace_check import verify_tracer
from repro.recovery import (
    CheckpointCostModel,
    EveryNBatches,
    RecoveryConfig,
    run_with_recovery,
)
from repro.runtime.task import HybridTask
from repro.runtime.trace import Tracer
from tests.conftest import make_runtime, payload_from_factors

N_TASKS = 40
COST = CheckpointCostModel(drain_gbps=4.0, restart_seconds=1e-4)


def payload_tasks() -> list[HybridTask]:
    proto = probe_item(2, 6, 3)
    rng = np.random.default_rng(1234)
    q, dim, rank = 10, 2, 3
    out = []
    for _ in range(N_TASKS):
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
    return make_runtime("hybrid", max_batch_size=10)


def run_schedule(injector):
    tasks = payload_tasks()
    results: dict[int, bytes] = {}
    for idx, t in enumerate(tasks):
        t.work.on_complete = (
            lambda out, i=idx: results.__setitem__(i, out.tobytes())
        )
    tracer = Tracer()
    run = run_with_recovery(
        factory,
        tasks,
        config=RecoveryConfig(
            policy=EveryNBatches(2),
            cost_model=COST,
            failure_detection_timeout=1e-4,
            max_restarts=12,
        ),
        injector=injector,
        tracer=tracer,
    )
    verify_tracer(tracer)
    return run, results, tracer


_CLEAN: dict[int, bytes] = {}


def clean_results() -> dict[int, bytes]:
    if not _CLEAN:
        _, results, _ = run_schedule(None)
        _CLEAN.update(results)
    return _CLEAN


@given(
    seed=st.integers(0, 2**32 - 1),
    crash_fractions=st.lists(
        st.floats(0.05, 1.5, allow_nan=False), min_size=0, max_size=4
    ),
    corruption_rate=st.sampled_from([None, 0.4, 1.0]),
)
@settings(max_examples=25, deadline=None)
def test_any_schedule_accumulates_exactly_once(
    seed, crash_fractions, corruption_rate
):
    base = factory().execute(payload_tasks()).total_seconds
    faults = [
        NodeCrash(rank=0, at=f * base) for f in sorted(set(crash_fractions))
    ]
    if corruption_rate is not None:
        faults.append(CheckpointCorruption(rate=corruption_rate))
    injector = FaultInjector(seed, faults)

    run, results, tracer = run_schedule(injector)

    # every item delivered, bit-identical to the fault-free run
    assert len(results) == N_TASKS
    assert results == clean_results()
    # the trace's recovery ledger nets to exactly-once accumulation
    effective: Counter = Counter()
    for record in tracer.log:
        if record.op == "accumulate":
            effective.update(record.ids)
        elif record.op == "rollback":
            effective.subtract(record.ids)
    assert len(effective) == N_TASKS
    assert set(effective.values()) == {1}
    # the restart count is bounded by the schedule
    assert run.restarts <= len(faults)
