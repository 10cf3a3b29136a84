"""The repository benchmark: one workload per process, host-time metrics.

Run from the repository root::

    python3 perfbench/run.py --workload tdse-table6 --seed 41 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

``--trace 0`` warms up with one repetition, then repeats reference +
build + timed section + reference while another repetition still fits
in ``--seconds`` (at least once) and reports the end-to-end metrics:
``wall_norm``, the median over repetitions of the timed section's time
divided by the time of the two reference computations around it
(reference.py), the median ``setup_s`` of the input build, and
``peak_rss_mb`` of this process.  The timed section's median in
seconds, ``wall_s``, is printed too.
``--trace 1`` runs the timed section once untraced and once with spans
around every layer and reports the per-layer metrics (layers.py),
after checking that both runs produced the same simulated fingerprint.

Every timing is host time.  Simulated time is an output: it is part of
the fingerprint, compared exactly against ``fingerprints.json`` at the
workload's default seed.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP thread pools before anything imports numpy: the
# host has few cores shared with other work, and a multithreaded BLAS
# would make the einsum-heavy workload's timing depend on the load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
OUT_DIR = CHECKOUT / ".perfbench"

#: input builds per untraced run, at least (``setup_s`` is their median)
MIN_SETUPS = 3

END_TO_END = (("wall_norm", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Put the checkout's ``src`` first on the path and check that the
    package really comes from there."""
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {src}/repro; run from a full checkout")
    sys.path[:0] = [str(src), str(CHECKOUT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        _fail(f"repro imported from {repro.__file__}, not from {src}")


def environment() -> dict:
    """What the numbers were measured on."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def median_line(name: str, unit: str, samples: list[float]) -> str:
    """A timing as its median, the highest percentile with at least
    ten samples beyond it (none below 11 samples), and the count."""
    n = len(samples)
    med = statistics.median(samples)
    if n >= 11:
        # the sample at sorted index n - 11 has exactly ten above it
        tail = f"p{100 * (n - 10) // n} {sorted(samples)[n - 11]:.6g}"
    else:
        tail = "no percentile (fewer than 11 samples)"
    shown = ", ".join(f"{s:.4f}" for s in samples)
    return f"{name}: median {med:.6g} {unit}; {tail}; n={n} [{shown}]"


class Checks:
    """Counts correctness checks; every failure is printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {name}: {detail}")

    def extend(self, results) -> None:
        for name, ok, detail in results:
            self.add(name, ok, detail)


def _canonical(fingerprint: dict) -> dict:
    """Fingerprint as it reads back from JSON (floats round-trip)."""
    return json.loads(json.dumps(fingerprint))


def pinned_fingerprint(name: str):
    """The committed default-seed fingerprint of a workload, or None."""
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        return json.load(fh).get(name)


def check_outputs(wl, seed, inputs, outputs, checks: Checks) -> dict:
    """Run the invariant checks, and the fingerprint check at the
    default seed; returns the run's fingerprint."""
    fp = _canonical(wl.fingerprint(outputs))
    checks.extend(wl.invariants(inputs, outputs))
    if seed == wl.default_seed:
        pinned = pinned_fingerprint(wl.name) or {}
        diff = {
            key: (fp.get(key), pinned.get(key))
            for key in sorted(set(fp) | set(pinned))
            if fp.get(key) != pinned.get(key)
        }
        checks.add("fingerprint", not diff, f"(got, pinned): {diff}")
    return fp


def input_seeds(seed):
    """The input seed of each repetition of an untraced run: the run's
    own seed for the warm-up and the first timed repetition, so that
    every run checks that one input gives one result, then seeds drawn
    from it.  Inputs of different seeds differ in how much work they
    make (by up to a third on tdse-table6), and a median over
    several inputs spreads less from run to run than one input's time.
    A seedless workload gets ``None`` throughout."""
    yield seed
    yield seed
    draw = None if seed is None else random.Random(seed)
    while True:
        yield None if draw is None else draw.randrange(2**31)


def timed(fn, *args):
    """``(result, seconds)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def measure(wl, seed, seconds: float, checks: Checks) -> dict:
    """The untraced run: end-to-end metrics."""
    from perfbench.layers import NullRecorder
    from perfbench.reference import reference

    null = NullRecorder()
    walls, setups, refs, fingerprints, rel_errs = [], [], [], [], []
    checksums = set()
    seeds = input_seeds(seed)
    start = time.perf_counter()
    warm_up = True
    while True:
        rep_start = time.perf_counter()
        rep_seed = next(seeds)
        gc.collect()
        checksum, ref_before = timed(reference)
        checksums.add(checksum)
        inputs, setup = timed(wl.build, rep_seed)
        outputs, wall = timed(wl.run, inputs, null)
        checksum, ref_after = timed(reference)
        checksums.add(checksum)
        ref = ref_before + ref_after
        # The first repetition warms up (first calls, allocator, caches
        # of the interpreter): it is checked but not timed.
        if not warm_up:
            refs.append(ref)
            setups.append(setup)
            walls.append(wall)
        warm_up = False
        fp = check_outputs(wl, rep_seed, inputs, outputs, checks)
        if rep_seed == seed:
            fingerprints.append(fp)
        if hasattr(wl, "potential_rel_err"):
            rel_errs.append(wl.potential_rel_err(inputs, outputs))
        del inputs, outputs
        # Repeat only if one more repetition as long as this one still
        # ends within ``seconds`` (which counts the warm-up too):
        # however slow the host, a run never overshoots its window by a
        # whole repetition, so a sweep of the benchmark keeps its time
        # budget.
        now = time.perf_counter()
        if walls and (now - start) + (now - rep_start) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        gc.collect()
        setups.append(timed(wl.build, seed)[1])
    checks.add(
        "repetitions_identical",
        all(fp == fingerprints[0] for fp in fingerprints),
        "fingerprint differs between repetitions of one input",
    )
    checks.add(
        "reference_identical",
        len(checksums) == 1,
        f"reference checksums differ: {sorted(checksums)}",
    )
    # Each repetition against the references that bracket it: the host
    # speed drifts within seconds, so a ratio of whole-run medians
    # would still carry the drift.
    norms = [wall / ref for wall, ref in zip(walls, refs)]
    print(median_line("wall_s", "s", walls))
    print(median_line("reference_s", "s", refs))
    print(median_line("wall_norm", "ratio", norms))
    print(median_line("setup_s", "s", setups))
    if rel_errs:
        print(f"potential_rel_err: {max(rel_errs):.6e} (bound {wl.TOLERANCE:g})")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb: {rss_mb:.1f} MB")
    return {
        "wall_norm": statistics.median(norms),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }


def traced(wl, seed, checks: Checks) -> tuple[dict, dict]:
    """The traced run: per-layer metrics, plus the span table."""
    from perfbench.layers import (
        PER_LAYER,
        ROOT,
        NullRecorder,
        Recorder,
        install_class_spans,
        per_layer_metrics,
    )

    gc.collect()
    inputs, _setup = timed(wl.build, seed)
    outputs, untraced_wall = timed(wl.run, inputs, NullRecorder())
    untraced_fp = check_outputs(wl, seed, inputs, outputs, checks)
    del inputs, outputs

    gc.collect()
    inputs, build_s = timed(wl.build, seed)
    rec = Recorder()
    install_class_spans(rec)
    try:
        outputs = rec.root(wl.run, inputs, rec)
    finally:
        rec.uninstall()
    for target in rec.missing:
        print(f"span skipped, not in the program: {target}")
    traced_fp = check_outputs(wl, seed, inputs, outputs, checks)
    checks.add(
        "tracing_does_not_perturb",
        traced_fp == untraced_fp,
        "traced fingerprint differs from the untraced one",
    )
    wall = rec.total(ROOT)
    checks.add(
        "self_times_sum_to_wall",
        abs(rec.self_sum() - wall) <= 1e-9 * max(1.0, wall),
        f"{rec.self_sum()!r} vs {wall!r}",
    )
    metrics = per_layer_metrics(
        rec,
        build_s=build_s,
        build_counts=wl.build_counts(inputs),
        untraced_wall=untraced_wall,
    )
    for name, unit in PER_LAYER:
        print(f"{name}: {metrics[name]:.6g} {unit}")
    spans = {
        name: {"calls": s.calls, "total_s": s.total, "self_s": s.self}
        for name, s in sorted(rec.stats.items())
    }
    return metrics, spans


def run_one(args) -> int:
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    if wl.default_seed is None:
        print(f"{wl.name} is seedless: the seed changes no input")
        seed = None
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    checks = Checks()
    if args.trace:
        from perfbench.layers import PER_LAYER

        values, spans = traced(wl, seed, checks)
        units = dict(PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        tag = "" if seed is None else f"-seed{seed}"
        out = OUT_DIR / f"{wl.name}{tag}-trace.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "metrics": values, "spans": spans}, fh, indent=1)
        print(f"spans written to {out}")
    else:
        values = measure(wl, seed, args.seconds, checks)
        units = dict(END_TO_END)
    print(
        f"failed_frac: {checks.failed / checks.attempted:g} "
        f"({checks.failed} of {checks.attempted} checks failed)"
    )
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own process: each one's report, then
    one combined JSON line with workload-prefixed metric names."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        code = code or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    _import_program()
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring window of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
