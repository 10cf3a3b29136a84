"""The four benchmark workloads.

Each workload stresses a different simulator layer, so that every
planned optimisation has one workload that exercises it and one that
bypasses it (README.md has the reasons and the predictions):

- ``coulomb-apply`` — real numerics and real task generation
  (``operators.apply_batched`` + ``kernels``);
- ``tdse-table6``   — the dispatcher split search and the node pipeline
  on cost-only items (``runtime.dispatcher`` + ``runtime.node``);
- ``steal-skewed``  — a thousand DES rank processes exchanging steal
  control messages (``runtime.events`` + ``cluster.stealing``);
- ``serve-audit``   — open-loop serving traced into a dump and audited
  (``serve`` + ``obs`` + ``lint``).

A workload splits into ``build`` (the inputs: the part reported as
``setup_s``) and ``run`` (the timed section, ``wall_s``).  ``build``
receives the seed; ``run`` receives only what ``build`` generated.
The simulated outputs a run produces are compared exactly against a
pinned fingerprint at the default seed (``fingerprints.json``); the
invariant checks run at every seed.
"""

from __future__ import annotations

import math
from collections import Counter

# real_instance imports scipy.special on first use; importing it here
# keeps that one-off cost out of the first measured build
import scipy.special  # noqa: F401
from repro.apps.coulomb import CoulombApplication
from repro.apps.tdse import TdseApplication
from repro.apps.workloads import SyntheticApplyWorkload
from repro.cluster.simulation import ClusterSimulation
from repro.cluster.stealing import StealingConfig
from repro.dht.process_map import SubtreePartitionMap
from repro.experiments.common import cost_pmap
from repro.experiments.stealing import TASKS_PER_RANK
from repro.faults.injector import FaultInjector
from repro.faults.models import NodeCrash
from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.lint.races import detect_races
from repro.lint.trace_check import find_violations
from repro.obs.dump import RunDump, capture_rank
from repro.operators.apply_batched import BatchedApply
from repro.runtime.dispatcher import HybridDispatcher
from repro.runtime.node import NodeRuntime
from repro.runtime.trace import Tracer
from repro.serve.admission import AdmissionConfig
from repro.serve.arrivals import PoissonArrivals
from repro.serve.autoscaler import AutoscalerConfig
from repro.serve.service import ServeConfig

from perfbench.layers import instrument_batched_apply, instrument_cluster

#: result of one check: (name, passed, detail)
Check = tuple[str, bool, str]


def _same(name: str, got, want) -> Check:
    return (name, got == want, f"{got!r} vs {want!r}")


class CoulombApply:
    """The real 3-D Coulomb ``BatchedApply`` on one hybrid Titan node.

    Seedless: the density is an analytic Gaussian and the operator a
    deterministic fit, so ``--seed`` has nothing to vary.
    """

    name = "coulomb-apply"
    default_seed = None
    #: the fixed problem (``CoulombApplication.real_instance`` arguments);
    #: eps 5e-3 keeps one repetition to about two seconds, so a run's
    #: median is taken over ten or so of them
    K, THRESH, EPS, ALPHA = 4, 2e-3, 5e-3, 150.0
    #: radii (from the charge centre) where the potential is checked
    RADII = (0.05, 0.1, 0.2, 0.3)
    #: relative-error bound of the computed potential: the projection
    #: threshold the density and the result are truncated at
    TOLERANCE = THRESH

    def build(self, seed):
        return CoulombApplication.real_instance(
            k=self.K, thresh=self.THRESH, eps=self.EPS, alpha=self.ALPHA
        )

    def run(self, inputs, rec):
        density, operator, _exact = inputs
        dispatcher = HybridDispatcher(
            CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)),
            CustomGpuKernel(GpuModel(TITAN_NODE.gpu)),
            cpu_threads=10,
            gpu_streams=5,
            mode="hybrid",
        )
        runtime = NodeRuntime(
            TITAN_NODE, dispatcher, flush_interval=0.005, max_batch_size=60
        )
        apply_op = BatchedApply(operator, runtime)
        instrument_batched_apply(rec, apply_op)
        return apply_op.apply(density)

    def build_counts(self, inputs) -> dict:
        # tasks are generated inside the timed apply, not at build time
        return {"tasks": 0, "tree_nodes": inputs[0].tree.size()}

    def potential_rel_err(self, inputs, result) -> float:
        """Max relative error of the potential against erf(√α r)/r."""
        exact = inputs[2]
        return max(
            abs(result.function.eval((0.5 + r, 0.5, 0.5)) - exact(r)) / exact(r)
            for r in self.RADII
        )

    def fingerprint(self, result) -> dict:
        tl, stats = result.timeline, result.stats
        return {
            "makespan_s": tl.total_seconds,
            "tasks": tl.n_tasks,
            "batches": tl.n_batches,
            "cpu_items": tl.n_cpu_items,
            "gpu_items": tl.n_gpu_items,
            "cpu_compute_busy_s": tl.cpu_compute_busy,
            "gpu_busy_s": tl.gpu_busy,
            "pcie_busy_s": tl.pcie_busy,
            "bytes_to_gpu": tl.bytes_to_gpu,
            "bytes_from_gpu": tl.bytes_from_gpu,
            "block_bytes_shipped": tl.block_bytes_shipped,
            "source_nodes": stats.source_nodes,
            "integral_tasks": stats.tasks,
            "mu_applications": stats.mu_applications,
            "screened_displacements": stats.screened_displacements,
        }

    def invariants(self, inputs, result) -> list[Check]:
        tl = result.timeline
        err = self.potential_rel_err(inputs, result)
        return [
            _same("items_conserved", tl.n_cpu_items + tl.n_gpu_items, tl.n_tasks),
            (
                "potential_within_tolerance",
                err <= self.TOLERANCE,
                f"max rel err {err:.3e} (bound {self.TOLERANCE:g})",
            ),
        ]


class _ClusterWorkload:
    """Shared result checks of the two cluster-scheduling workloads."""

    def build_counts(self, inputs) -> dict:
        tasks = inputs[0].tasks
        return {
            "tasks": len(tasks),
            "tree_nodes": len({t.key for t in tasks}),
        }

    def _fingerprint(self, result) -> dict:
        return {
            "makespan_s": result.makespan_seconds,
            "tasks": result.total_tasks,
            "messages": result.total_messages,
            "message_bytes": result.total_message_bytes,
            "imbalance": result.imbalance.imbalance,
        }

    def _conservation(self, inputs, result) -> list[Check]:
        executed = sum(r.n_tasks for r in result.node_results)
        return [
            _same("tasks_conserved", executed, len(inputs[0].tasks)),
            _same("tasks_reported", result.total_tasks, len(inputs[0].tasks)),
            (
                "makespan_finite",
                math.isfinite(result.makespan_seconds)
                and result.makespan_seconds > 0,
                repr(result.makespan_seconds),
            ),
        ]


class TdseTable6(_ClusterWorkload):
    """Table VI's 4-D TDSE stream at 0.025 scale on 40 hybrid nodes
    (about as many tasks per node as the paper's run)."""

    name = "tdse-table6"
    default_seed = 41  # TdseApplication's own seed
    N_TASKS = 13_553  # 0.025 x the paper's 542,113
    NODES = 40
    TARGET_CHUNKS = 150

    def build(self, seed):
        workload = TdseApplication(n_tasks=self.N_TASKS, seed=seed).workload()
        return workload, cost_pmap(workload, self.NODES, self.TARGET_CHUNKS)

    def run(self, inputs, rec):
        workload, pmap = inputs
        sim = ClusterSimulation(
            self.NODES,
            pmap,
            mode="hybrid",
            gpu_kernel="cublas",
            rank_reduction=True,
            flush_interval=0.03,
        )
        instrument_cluster(rec, sim)
        return sim.run(workload.tasks)

    def fingerprint(self, result) -> dict:
        out = self._fingerprint(result)
        timelines = [r.timeline for r in result.node_results]
        out["batches"] = sum(t.n_batches for t in timelines)
        out["cpu_items"] = sum(t.n_cpu_items for t in timelines)
        out["gpu_items"] = sum(t.n_gpu_items for t in timelines)
        return out

    def invariants(self, inputs, result) -> list[Check]:
        items = sum(
            r.timeline.n_cpu_items + r.timeline.n_gpu_items
            for r in result.node_results
        )
        return self._conservation(inputs, result) + [
            _same("items_dispatched", items, len(inputs[0].tasks))
        ]


class StealSkewed(_ClusterWorkload):
    """The canonical skewed work-stealing scenario at 1000 ranks."""

    name = "steal-skewed"
    default_seed = 13  # repro.experiments.stealing.skewed_workload's seed
    RANKS = 1000

    def build(self, seed):
        # skewed_workload(RANKS) with the seed taken as an argument
        workload = SyntheticApplyWorkload(
            dim=3,
            k=8,
            rank=40,
            n_tasks=TASKS_PER_RANK * self.RANKS,
            n_tree_leaves=max(64, self.RANKS // 2),
            seed=seed,
            skew=3.0,
        )
        return workload, SubtreePartitionMap(self.RANKS, anchor_level=2)

    def run(self, inputs, rec):
        workload, pmap = inputs
        sim = ClusterSimulation(
            self.RANKS,
            pmap,
            mode="hybrid",
            stealing=StealingConfig(
                enabled=True, chunk_size=4, executor="analytic"
            ),
        )
        instrument_cluster(rec, sim)
        return sim.run(workload.tasks)

    def fingerprint(self, result) -> dict:
        return self._fingerprint(result)

    def invariants(self, inputs, result) -> list[Check]:
        return self._conservation(inputs, result)


class ServeAudit:
    """Open-loop serving with two rank kills, dumped and audited."""

    name = "serve-audit"
    default_seed = 21  # the chaos-sched serving seed
    #: Poisson arrivals per simulated second over the horizon (a model
    #: input: the service is open-loop on the simulated clock)
    RATE, HORIZON, TENANTS = 500.0, 5.0, 4
    RANKS = 4
    #: (rank, simulated instant) of the two mid-trace kills — the
    #: chaos-sched kill fractions 0.2 and 0.45 of the horizon
    KILLS = ((1, 1.0), (2, 2.25))

    def build(self, seed):
        return PoissonArrivals(
            rate=self.RATE,
            horizon=self.HORIZON,
            n_tenants=self.TENANTS,
            seed=seed,
        ).requests()

    @staticmethod
    def config():
        """The chaos-sched serving configuration."""
        return ServeConfig(
            admission=AdmissionConfig(tenant_rate=200.0, tenant_burst=60.0),
            autoscaler=AutoscalerConfig(
                min_ranks=2,
                max_ranks=8,
                interval=0.05,
                high_water=0.05,
                low_water=0.01,
                cooldown=0.1,
            ),
            retry_budget=3,
        )

    def run(self, requests, rec):
        tracer = Tracer()
        sim = ClusterSimulation(
            self.RANKS,
            SubtreePartitionMap(self.RANKS, anchor_level=1),
            mode="hybrid",
            rank_tracers={0: tracer},
            fault_injector=FaultInjector(
                seed=5,
                faults=[NodeCrash(rank=r, at=at) for r, at in self.KILLS],
            ),
        )
        instrument_cluster(rec, sim)
        result = sim.serve(requests, self.config())
        dump = RunDump(
            meta={"scenario": self.name},
            ranks=[rec.call("obs.capture", capture_rank, 0, tracer, {})],
        )
        log = dump.ranks[0].log
        rec.counts["obs.records"] += len(log)
        violations = rec.call("check.trace", find_violations, log)
        races = rec.call("check.races", detect_races, dump)
        return result, violations, races.races

    def build_counts(self, requests) -> dict:
        return {"tasks": len(requests), "tree_nodes": 0}

    def fingerprint(self, outputs) -> dict:
        result = outputs[0]
        return {
            "makespan_s": result.makespan,
            "jobs": result.n_arrived,
            "admitted": result.n_admitted,
            "shed": result.n_shed,
            "completed": result.n_completed,
            "on_time": result.n_on_time,
            "dropped": result.n_dropped,
            "requeues": result.n_requeues,
            "batches": result.n_batches,
            "p99_latency_s": result.latency_percentile(99),
            "goodput": result.goodput,
            "final_pool": result.final_pool,
            "pool_peak": result.pool_peak,
            "dead_ranks": result.dead_ranks,
            "shed_by_reason": dict(
                Counter(o.shed_reason for o in result.outcomes if not o.admitted)
            ),
        }

    def invariants(self, requests, outputs) -> list[Check]:
        result, violations, races = outputs
        return [
            ("trace_check_clean", not violations, f"{violations[:3]}"),
            ("races_clean", not races, f"{races[:3]}"),
            _same("jobs_conserved", result.n_arrived, len(requests)),
            _same("front_door", result.n_admitted + result.n_shed, result.n_arrived),
            _same(
                "admitted_conserved",
                result.n_completed + result.n_dropped,
                result.n_admitted,
            ),
        ]


WORKLOADS = {
    wl.name: wl for wl in (CoulombApply(), TdseTable6(), StealSkewed(), ServeAudit())
}
