"""The DES core: pinned outputs plus the events/sec baseline.

Two jobs (``make des-smoke`` runs both):

- a smoke-scale stealing run (500 ranks, independent of
  ``REPRO_BENCH_SCALE``) must reproduce, field for field, the
  deterministic outputs in ``BENCH_cluster.json``'s ``smoke`` block,
  which were recorded on the legacy global-heap engine (sorted-scan
  victim board, no event pooling) before the kernel collapsed to one
  engine;
- maintain ``BENCH_cluster.json`` at the repo root: the fixed
  5000-rank stealing scenario whose deterministic outputs (makespan,
  event/task/message counts, imbalance) are pinned exactly, with two
  wall-dependent records taken on one host at write time —
  ``legacy_heap`` (the legacy engine, measured from commit
  ``legacy_heap.commit``) and ``core`` (this kernel) — and the
  committed ``core`` / ``legacy_heap`` events/sec ratio audited
  (required ≥10×) on every run.  An ``ablation`` block records the
  board / queue / pool matrix and the static-baseline cohort pairs
  measured on that same commit.

Regenerate the ``core`` record with ``REPRO_BENCH_WRITE=1 pytest
benchmarks/test_des_core.py``; it must reproduce ``pinned`` exactly.
The legacy engine no longer exists in the tree, so ``legacy_heap`` and
``ablation`` are carried over verbatim — re-measure them from the
recorded commit on the same host before comparing a new ``core``
record against them.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.cluster.simulation import ClusterResult, ClusterSimulation
from repro.cluster.stealing import StealingConfig
from repro.dht.process_map import SubtreePartitionMap
from repro.experiments.stealing import skewed_workload

from benchmarks.conftest import bench_scale

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"

#: the pinned scenario — fixed regardless of REPRO_BENCH_SCALE
BASELINE_RANKS = 5000

#: the smoke-scale point, also fixed regardless of REPRO_BENCH_SCALE
SMOKE_RANKS = 500


def _run_stealing(ranks: int) -> tuple[ClusterResult, float]:
    """One stealing run of the canonical skewed sweep point."""
    workload = skewed_workload(ranks)
    sim = ClusterSimulation(
        ranks,
        SubtreePartitionMap(ranks, anchor_level=2),
        mode="hybrid",
        stealing=StealingConfig(
            enabled=True, chunk_size=4, executor="analytic"
        ),
    )
    start = time.perf_counter()
    result = sim.run(workload.tasks)
    wall = time.perf_counter() - start
    return result, wall


def _deterministic_fields(result: ClusterResult) -> dict:
    """The host-independent outputs (asserted exactly)."""
    return {
        "makespan_seconds": result.makespan_seconds,
        "n_events": result.total_events,
        "total_tasks": result.total_tasks,
        "total_messages": result.total_messages,
        "total_message_bytes": result.total_message_bytes,
        "imbalance": result.imbalance.imbalance,
    }


def _committed() -> dict:
    assert BENCH_PATH.exists(), "BENCH_cluster.json missing"
    return json.loads(BENCH_PATH.read_text())


def test_smoke_scale_matches_legacy_pins():
    """The single kernel reproduces the legacy engine's smoke run."""
    smoke = _committed()["smoke"]
    assert smoke["ranks"] == SMOKE_RANKS
    result, _ = _run_stealing(SMOKE_RANKS)
    assert _deterministic_fields(result) == smoke["pinned"]


def test_des_baseline_is_recorded_and_pinned():
    """BENCH_cluster.json pins the 5000-rank scenario: deterministic
    outputs exactly, recorded core/legacy speedup >= 10x."""
    pinned = _committed()
    assert pinned["scenario"]["ranks"] == BASELINE_RANKS
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        core, wall = _run_stealing(BASELINE_RANKS)
        assert _deterministic_fields(core) == pinned["pinned"]
        pinned["core"] = {
            "wall_seconds": wall,
            "events_per_second": core.total_events / wall,
        }
        pinned["speedup"] = pinned["legacy_heap"]["wall_seconds"] / wall
        BENCH_PATH.write_text(json.dumps(pinned, indent=2) + "\n")
    assert pinned["speedup"] >= 10.0, (
        "the committed baseline no longer shows the >=10x events/sec "
        "claim over the legacy engine — investigate before shipping"
    )
    assert (
        pinned["core"]["events_per_second"]
        >= 10.0 * pinned["legacy_heap"]["events_per_second"]
    )
    if bench_scale() >= 1.0:
        # at full scale, re-verify the deterministic outputs against
        # the committed pin (the run takes ~20 s)
        core, _ = _run_stealing(BASELINE_RANKS)
        assert _deterministic_fields(core) == pinned["pinned"]
