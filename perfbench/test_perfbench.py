"""Tests of the benchmark's own machinery (not of the program).

    PYTHONPATH=src python3 -m pytest perfbench -q

The traced-run tests use shrunken copies of the four workloads, so they
exercise every layer's spans in seconds.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run
from perfbench.layers import PER_LAYER, ROOT, Recorder
from perfbench.reference import reference
from perfbench.workloads import (
    WORKLOADS,
    CoulombApply,
    ServeAudit,
    StealSkewed,
    TdseTable6,
)

BENCH_DIR = Path(run.__file__).resolve().parent


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_sum_to_root_duration():
    rec = Recorder()

    def leaf():
        _spin(0.002)

    def middle():
        _spin(0.001)
        rec.call("leaf", leaf)
        rec.call("leaf", leaf)

    def top():
        rec.call("middle", middle)
        _spin(0.001)

    rec.root(top)
    wall = rec.total(ROOT)
    assert rec.self_sum() == pytest.approx(wall, rel=1e-12)
    assert rec.calls("leaf") == 2
    assert rec.self_time("leaf") == pytest.approx(rec.total("leaf"))
    assert rec.self_time("middle") == pytest.approx(
        rec.total("middle") - rec.total("leaf")
    )
    assert 0 < rec.self_time(ROOT) < wall


def test_inclusive_total_counts_outermost_span_only():
    rec = Recorder()

    def recurse(depth):
        _spin(0.001)
        if depth:
            rec.call("r", recurse, depth - 1)

    rec.root(lambda: rec.call("r", recurse, 2))
    assert rec.calls("r") == 3
    assert rec.total("r") <= rec.total(ROOT)
    assert rec.self_time("r") == pytest.approx(rec.total("r"), rel=1e-9)


class _Target:
    def method(self, x):
        return x + 1


def test_patches_are_restored():
    original = _Target.__dict__["method"]
    obj = _Target()
    rec = Recorder()
    seen = []
    rec.patch_class(_Target, "method", "cls", lambda a, r, s: seen.append(a[1]))
    rec.instance(obj, "method", "inst")
    rec.patch_class(_Target, "removed_method", "gone")
    assert rec.missing == ["_Target.removed_method"]
    assert rec.root(obj.method, 1) == 2
    assert seen == [1] and rec.calls("inst") == 1 and rec.calls("cls") == 1
    rec.uninstall()
    assert _Target.__dict__["method"] is original
    assert "method" not in vars(obj)


def test_median_line_reports_percentile_only_with_ten_beyond():
    assert "no percentile" in run.median_line("x", "s", [1.0] * 10)
    line = run.median_line("x", "s", [float(i) for i in range(20)])
    # 20 samples: the sample at sorted index 9 has ten above it (p50)
    assert "p50 9" in line and "n=20" in line


def test_input_seeds_repeat_the_run_seed_then_draw_from_it():
    def take(seed):
        return list(itertools.islice(run.input_seeds(seed), 6))

    seeds = take(41)
    assert seeds[:2] == [41, 41] and len(set(seeds[2:])) == 4
    assert take(41) == seeds and take(42)[2:] != seeds[2:]
    assert take(None) == [None] * 6


def test_reference_is_deterministic():
    assert reference() == reference()


def test_fingerprints_pinned_for_every_workload():
    with open(BENCH_DIR / "fingerprints.json", encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert sorted(pinned) == sorted(WORKLOADS)
    for fingerprint in pinned.values():
        assert fingerprint["makespan_s"] > 0


class _SmallCoulomb(CoulombApply):
    name = "coulomb-apply-small"
    default_seed = -1  # never pinned
    K, THRESH, EPS = 3, 1e-2, 1e-2


class _SmallTdse(TdseTable6):
    name = "tdse-table6-small"
    default_seed = -1
    N_TASKS, NODES, TARGET_CHUNKS = 1500, 6, 4


class _SmallSteal(StealSkewed):
    name = "steal-skewed-small"
    default_seed = -1
    RANKS = 48


class _SmallServe(ServeAudit):
    name = "serve-audit-small"
    default_seed = -1
    RATE, HORIZON = 200.0, 0.5
    KILLS = ((1, 0.1), (2, 0.225))


#: shrunken workload, seed, and per-layer metrics its layer must move
SMALL = [
    (_SmallCoulomb(), None, ("kernels.cpu.run_s", "kernels.gpu.items", "apply.tasks")),
    (_SmallTdse(), 3, ("dispatch.plan_s", "node.executes", "cluster.run_s")),
    (_SmallSteal(), 3, ("steal.requests", "steal.run_s", "des.events")),
    (_SmallServe(), 3, ("serve.jobs", "obs.records", "check.races_s")),
]


@pytest.mark.parametrize(
    "wl,seed,moved", SMALL, ids=[wl.name for wl, _s, _m in SMALL]
)
def test_traced_run_is_clean_and_complete(wl, seed, moved):
    checks = run.Checks()
    metrics, spans = run.traced(wl, seed, checks)
    # includes: tracing_does_not_perturb and self_times_sum_to_wall
    assert checks.attempted > 0 and checks.failed == 0
    assert list(metrics) == [name for name, _unit in PER_LAYER]
    for name in moved:
        assert metrics[name] > 0, name
    assert spans[ROOT]["calls"] == 1


def test_untraced_run_reports_end_to_end_metrics():
    checks = run.Checks()
    metrics = run.measure(_SmallSteal(), 3, 0.0, checks)
    assert checks.failed == 0
    assert sorted(metrics) == sorted(name for name, _unit in run.END_TO_END)
    assert all(value > 0 for value in metrics.values())


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steal-skewed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
