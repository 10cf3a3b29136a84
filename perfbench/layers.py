"""Host-time spans around the calls into each simulator layer.

The traced run of the benchmark wraps public functions and methods of
``repro`` from *outside* the package: instance attributes where the
benchmark builds the object itself (``BatchedApply``,
``ClusterSimulation``), class attributes otherwise (runtimes, kernels,
dispatchers, DES environments that the program builds internally).
Nothing under ``src/`` is edited; :meth:`Recorder.uninstall` puts every
original attribute back.

Spans nest on one stack (the simulator is single-threaded and its DES
processes are generators resumed inside ``Environment.run``, so every
wrapped call happens inside the call stack of its enclosing span).  A
span's *self* time is its duration minus the time its direct child
spans cover, so the self times of all spans plus the root's sum to the
root's duration exactly — the property ``test_perfbench.py`` checks.

Inclusive totals count only the outermost span of a name: a serving
run's calibration ``Environment.run`` nested inside the service's own
``Environment.run`` is not counted twice in ``des.run_s``.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter

#: name of the span that wraps the timed section of a traced run
ROOT = "root"


class _Stat:
    __slots__ = ("calls", "total", "self", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0  # outermost occurrences only
        self.self = 0.0
        self.depth = 0


class NullRecorder:
    """The untraced run's recorder: calls straight through."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(float)

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` (no span)."""
        return fn(*args, **kwargs)


class Recorder(NullRecorder):
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        super().__init__()
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        #: child-time accumulators of the open spans; the bottom one
        #: absorbs spans that run outside any root (none in a run)
        self._stack: list[list[float]] = [[0.0]]
        self._patches: list[tuple[object, str, object, bool]] = []
        #: ``Class.attr`` targets that no longer exist in the program
        #: (their layer then reports zero; run.py prints the list)
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, stat: _Stat) -> tuple[list[float], float]:
        frame = [0.0]
        self._stack.append(frame)
        stat.depth += 1
        return frame, _clock()

    def _exit(self, stat: _Stat, frame: list[float], t0: float) -> None:
        dt = _clock() - t0
        self._stack.pop()
        self._stack[-1][0] += dt
        stat.depth -= 1
        stat.calls += 1
        stat.self += dt - frame[0]
        if stat.depth == 0:
            stat.total += dt

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stat = self.stats[name]
        frame, t0 = self._enter(stat)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(stat, frame, t0)

    def wrap(self, name, fn, post=None, pre=None):
        """``fn`` wrapped in a span; ``pre(args)`` runs before the call
        and its value reaches ``post(args, result, state)`` after it
        (outside the span, so hooks cost no layer time).  With
        ``name=None`` only the hooks run."""
        stat = self.stats[name] if name is not None else None
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            state = pre(args) if pre is not None else None
            if stat is None:
                result = fn(*args, **kwargs)
            else:
                frame, t0 = enter(stat)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(stat, frame, t0)
            if post is not None:
                post(args, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def instance(self, obj, attr, name, post=None, pre=None) -> None:
        """Shadow the bound method ``obj.attr`` with a wrapped one
        (hook ``args`` exclude ``self``)."""
        original = getattr(obj, attr, None)
        if original is None:
            self.missing.append(f"{type(obj).__name__}.{attr}")
            return
        setattr(obj, attr, self.wrap(name, original, post, pre))
        self._patches.append((obj, attr, None, False))

    def patch_class(self, cls, attr, name, post=None, pre=None) -> None:
        """Replace ``cls.attr`` with a wrapped function (hook ``args``
        start with ``self``)."""
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, self.wrap(name, original, post, pre))
        self._patches.append((cls, attr, original, True))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            target, attr, original, is_class = self._patches.pop()
            if is_class:
                setattr(target, attr, original)
            else:
                delattr(target, attr)

    # -- the timed section ---------------------------------------------------

    def root(self, fn, *args, **kwargs):
        """Run the timed section as the root span."""
        return self.call(ROOT, fn, *args, **kwargs)

    def total(self, name: str) -> float:
        """Inclusive seconds of the outermost ``name`` spans."""
        stat = self.stats.get(name)
        return stat.total if stat is not None else 0.0

    def self_time(self, name: str) -> float:
        """Seconds inside ``name`` spans not covered by child spans."""
        stat = self.stats.get(name)
        return stat.self if stat is not None else 0.0

    def calls(self, name: str) -> int:
        """Completed ``name`` spans."""
        stat = self.stats.get(name)
        return stat.calls if stat is not None else 0

    def self_sum(self) -> float:
        """Self seconds summed over every span, root included."""
        return sum(stat.self for stat in self.stats.values())


# -- class-level instrumentation shared by every workload ---------------------


def install_class_spans(rec: Recorder) -> None:
    """Wrap the layers the program builds internally.

    Every workload gets the same set, so a layer a workload never
    enters reports zero there — which is the prediction for the
    workloads chosen to bypass it.
    """
    from repro.kernels.cpu_kernel import CpuMtxmKernel
    from repro.kernels.cublas_gpu import CublasKernel
    from repro.kernels.custom_gpu import CustomGpuKernel
    from repro.kernels.gpu_cache import GpuBlockCache
    from repro.runtime.buffers import PinnedBufferPool
    from repro.runtime.dispatcher import HybridDispatcher
    from repro.runtime.events import Environment
    from repro.runtime.node import NodeRuntime
    from repro.cluster.stealing import StealingEngine

    counts = rec.counts

    def ran_items(device):
        def post(args, _result, _state):
            counts[f"kernels.{device}.items"] += 1
            counts[f"kernels.{device}.flops"] += args[1].flops

        return post

    rec.patch_class(CpuMtxmKernel, "run_item", "kernels.cpu.run", ran_items("cpu"))
    for gpu_cls in (CublasKernel, CustomGpuKernel):
        rec.patch_class(gpu_cls, "run_item", "kernels.gpu.run", ran_items("gpu"))
    for kernel_cls in (CpuMtxmKernel, CublasKernel, CustomGpuKernel):
        rec.patch_class(kernel_cls, "batch_timing", "kernels.cost_model")

    def planned(args, plan, _state):
        counts["dispatch.items"] += len(args[1].items)
        counts["dispatch.cpu_items"] += len(plan.cpu_items)

    rec.patch_class(HybridDispatcher, "plan", "dispatch.plan", planned)

    rec.patch_class(NodeRuntime, "execute", "node.execute")
    for attr in (
        "in_flight",
        "begin_transfer",
        "commit_transfer",
        "abort_transfer",
        "bytes_to_transfer",
    ):
        rec.patch_class(GpuBlockCache, attr, "node.cache")
    rec.patch_class(PinnedBufferPool, "plan", "node.buffer_plan")

    def env_made(_args, _result, _state):
        counts["des.envs"] += 1

    def events_before(args):
        return args[0].n_processed

    def events_after(args, _result, before):
        counts["des.events"] += args[0].n_processed - before

    rec.patch_class(Environment, "__init__", None, env_made)
    rec.patch_class(Environment, "run", "des.run", events_after, events_before)

    def stole(args, outcome, _state):
        counts["steal.tasks"] += len(args[1])
        counts["steal.requests"] += outcome.steals_attempted
        counts["steal.grants"] += outcome.steals_granted
        counts["steal.denies"] += outcome.steals_denied
        counts["steal.tasks_migrated"] += outcome.tasks_migrated
        counts["steal.events"] += outcome.n_events

    rec.patch_class(StealingEngine, "run", "steal.run", stole)


def instrument_batched_apply(rec: NullRecorder, apply_op) -> None:
    """Spans on a benchmark-built ``BatchedApply``: the whole apply,
    task generation, and each task's preprocess/postprocess closure."""
    if not isinstance(rec, Recorder):
        return
    counts = rec.counts
    wrap = rec.wrap

    def wrap_postprocess(_args, item, _state):
        if item.on_complete is not None:
            item.on_complete = wrap("apply.postprocess", item.on_complete)

    def wrap_tasks(_args, tasks, _state):
        counts["apply.tasks"] += len(tasks)
        for task in tasks:
            if task.preprocess is not None:
                task.preprocess = wrap(
                    "apply.preprocess", task.preprocess, wrap_postprocess
                )

    rec.instance(apply_op, "apply", "apply")
    rec.instance(apply_op, "generate_tasks", "apply.taskgen", wrap_tasks)


def instrument_cluster(rec: NullRecorder, sim) -> None:
    """Spans on a benchmark-built ``ClusterSimulation``."""
    if not isinstance(rec, Recorder):
        return
    counts = rec.counts

    def served(_args, result, _state):
        counts["serve.jobs"] += result.n_arrived
        counts["serve.batches"] += result.n_batches

    rec.instance(sim, "run", "cluster.run")
    rec.instance(sim, "serve", "serve.run", served)
    rec.instance(sim, "serve_batch_seconds", "serve.batch_cost")


# -- per-layer metrics ----------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("build.s", "s"),
    ("build.tasks", "count"),
    ("build.tree_nodes", "count"),
    ("apply.taskgen_s", "s"),
    ("apply.tasks", "count"),
    ("apply.preprocess_s", "s"),
    ("apply.postprocess_s", "s"),
    ("apply.self_s", "s"),
    ("kernels.cpu.run_s", "s"),
    ("kernels.gpu.run_s", "s"),
    ("kernels.cpu.items", "count"),
    ("kernels.gpu.items", "count"),
    ("kernels.cpu.flops", "flop"),
    ("kernels.gpu.flops", "flop"),
    ("kernels.cpu.host_gflops", "GFLOP/s"),
    ("kernels.gpu.host_gflops", "GFLOP/s"),
    ("kernels.cost_model_s", "s"),
    ("kernels.cost_model_calls", "count"),
    ("dispatch.plan_s", "s"),
    ("dispatch.plans", "count"),
    ("dispatch.items", "count"),
    ("dispatch.plan_us_per_item", "us"),
    ("dispatch.cpu_item_frac", "ratio"),
    ("node.execute_s", "s"),
    ("node.executes", "count"),
    ("node.cache_s", "s"),
    ("node.buffer_plan_s", "s"),
    ("des.run_s", "s"),
    ("des.self_s", "s"),
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("des.envs", "count"),
    ("cluster.run_s", "s"),
    ("cluster.self_s", "s"),
    ("steal.run_s", "s"),
    ("steal.requests", "count"),
    ("steal.grants", "count"),
    ("steal.denies", "count"),
    ("steal.grant_ratio", "ratio"),
    ("steal.tasks_migrated", "count"),
    ("steal.events_per_task", "count"),
    ("serve.run_s", "s"),
    ("serve.self_s", "s"),
    ("serve.batch_cost_s", "s"),
    ("serve.batch_cost_calls", "count"),
    ("serve.jobs", "count"),
    ("serve.batches", "count"),
    ("obs.capture_s", "s"),
    ("obs.records", "count"),
    ("check.trace_s", "s"),
    ("check.races_s", "s"),
    ("check.records_per_s", "1/s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.bench_self_s", "s"),
)


def per_layer_metrics(
    rec: Recorder, *, build_s: float, build_counts: dict, untraced_wall: float
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value of one traced run."""
    c = rec.counts
    total, own, calls = rec.total, rec.self_time, rec.calls
    wall = total(ROOT)
    values = {
        "build.s": build_s,
        "build.tasks": build_counts["tasks"],
        "build.tree_nodes": build_counts["tree_nodes"],
        "apply.taskgen_s": total("apply.taskgen"),
        "apply.tasks": c["apply.tasks"],
        "apply.preprocess_s": total("apply.preprocess"),
        "apply.postprocess_s": total("apply.postprocess"),
        "apply.self_s": own("apply"),
        "kernels.cost_model_s": total("kernels.cost_model"),
        "kernels.cost_model_calls": calls("kernels.cost_model"),
        "dispatch.plan_s": total("dispatch.plan"),
        "dispatch.plans": calls("dispatch.plan"),
        "dispatch.items": c["dispatch.items"],
        "dispatch.plan_us_per_item": 1e6
        * _ratio(total("dispatch.plan"), c["dispatch.items"]),
        "dispatch.cpu_item_frac": _ratio(
            c["dispatch.cpu_items"], c["dispatch.items"]
        ),
        "node.execute_s": total("node.execute"),
        "node.executes": calls("node.execute"),
        "node.cache_s": total("node.cache"),
        "node.buffer_plan_s": total("node.buffer_plan"),
        "des.run_s": total("des.run"),
        "des.self_s": own("des.run"),
        "des.events": c["des.events"],
        "des.events_per_s": _ratio(c["des.events"], total("des.run")),
        "des.envs": c["des.envs"],
        "cluster.run_s": total("cluster.run"),
        "cluster.self_s": own("cluster.run"),
        "steal.run_s": total("steal.run"),
        "steal.requests": c["steal.requests"],
        "steal.grants": c["steal.grants"],
        "steal.denies": c["steal.denies"],
        "steal.grant_ratio": _ratio(c["steal.grants"], c["steal.requests"]),
        "steal.tasks_migrated": c["steal.tasks_migrated"],
        "steal.events_per_task": _ratio(c["steal.events"], c["steal.tasks"]),
        "serve.run_s": total("serve.run"),
        "serve.self_s": own("serve.run"),
        "serve.batch_cost_s": total("serve.batch_cost"),
        "serve.batch_cost_calls": calls("serve.batch_cost"),
        "serve.jobs": c["serve.jobs"],
        "serve.batches": c["serve.batches"],
        "obs.capture_s": total("obs.capture"),
        "obs.records": c["obs.records"],
        "check.trace_s": total("check.trace"),
        "check.races_s": total("check.races"),
        "check.records_per_s": _ratio(
            c["obs.records"], total("check.trace") + total("check.races")
        ),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.bench_self_s": own(ROOT),
    }
    for device in ("cpu", "gpu"):
        run_s = total(f"kernels.{device}.run")
        flops = c[f"kernels.{device}.flops"]
        values[f"kernels.{device}.run_s"] = run_s
        values[f"kernels.{device}.items"] = c[f"kernels.{device}.items"]
        values[f"kernels.{device}.flops"] = flops
        values[f"kernels.{device}.host_gflops"] = _ratio(flops, run_s) / 1e9
    return {name: float(values[name]) for name, _unit in PER_LAYER}
