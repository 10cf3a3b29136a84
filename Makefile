PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint lint-tests races ruff mypy test perfbench-test coverage golden trace-check steal-smoke serve-smoke chaos-sched-smoke des-smoke des-equivalence operator-equivalence

## check: everything CI runs — in-tree analyzer, race gate, ruff, mypy,
## tier-1 tests, the benchmark's own tests
check: lint lint-tests races ruff mypy test perfbench-test

## lint: the project's own determinism/resource-safety analyzer (hard
## gate), full rule set over the library, benchmarks, and examples
lint:
	$(PYTHON) -m repro.lint src/repro benchmarks examples

## lint-tests: determinism / float-time hygiene over the test suites
## (tests may opt out per line with a justified `# repro: noqa[FLT001]`)
lint-tests:
	$(PYTHON) -m repro.lint tests benchmarks --select DET001,DET002,FLT001

## races: dynamic race detector + schedule-invariance smoke over the
## canonical scenarios (10 replay reorderings + 2 live adversarial
## schedules each; see docs/RACES.md)
races:
	$(PYTHON) -m repro.lint races --perturb 10 --live 2

## ruff / mypy: optional external baselines — skipped when not installed
ruff:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; \
	then ruff check src tests; \
	else echo "ruff not installed; skipping (pip install .[lint])"; fi

mypy:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; \
	then $(PYTHON) -m mypy; \
	else echo "mypy not installed; skipping (pip install .[lint])"; fi

## test: tier-1 suite
test:
	$(PYTHON) -m pytest -x -q --durations=15

## perfbench-test: the benchmark's own tests — shrunken copies of the
## four workloads must run clean under tracing and move their layers'
## spans (among them HybridDispatcher.plan and NodeRuntime.execute), so
## renaming a spanned method fails here
perfbench-test:
	$(PYTHON) -m pytest perfbench -q

## coverage: tier-1 suite under pytest-cov, gated on the in-repo ratchet
## floor (.coverage-floor).  Raise the floor when coverage rises; CI
## blocks on it.  Skipped when pytest-cov is not installed.
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; \
	then $(PYTHON) -m pytest -x -q --cov=repro \
	    --cov-report=term --cov-fail-under="$$(cat .coverage-floor)"; \
	else echo "pytest-cov not installed; skipping (pip install .[test])"; fi

## golden: regenerate the golden trace fixtures (review the diff!)
golden:
	$(PYTHON) -m pytest tests/obs/test_golden_traces.py -q --update-golden

## steal-smoke: reduced-scale stealing-vs-static benchmark (the full
## sweep runs 5000 simulated ranks; scale 0.1 stops at 500)
steal-smoke:
	REPRO_BENCH_SCALE=0.1 $(PYTHON) -m pytest benchmarks/test_stealing.py -q

## serve-smoke: reduced-scale serving ablation + the pinned
## BENCH_serve.json baseline (the p99/goodput win must hold at 0.1)
serve-smoke:
	REPRO_BENCH_SCALE=0.1 $(PYTHON) -m pytest benchmarks/test_serve.py -q

## chaos-sched-smoke: composed-mode chaos — stealing+recovery must beat
## static+recovery at every crash rate and serving must lose zero jobs
## under rank kills; also pins the BENCH_chaos.json baseline
chaos-sched-smoke:
	REPRO_BENCH_SCALE=0.1 $(PYTHON) -m pytest benchmarks/test_chaos_sched.py -q

## des-equivalence: the DES-kernel gate — 250 seeded random event
## programs must reproduce the legacy engine's pinned completion logs,
## same-instant ties their pinned orders, and the lazy victim board the
## legacy sorted scan's pinned stealing outcome (blocking in CI)
des-equivalence:
	$(PYTHON) -m pytest tests/runtime/test_des_equivalence.py \
	    tests/runtime/test_des_tiebreak.py \
	    tests/cluster/test_stealing.py::test_lazy_board_matches_legacy_scan -q

## operator-equivalence: the operator-table gate — the build-once
## quadrature windows, batched norms, ring-batched screening rows and
## per-signature payload stacks must equal a per-call evaluation bit for
## bit, the evaluator the per-term mtxmq chain, and two Coulomb applies
## their pinned result bytes and node ledger (blocking in CI)
operator-equivalence:
	$(PYTHON) -m pytest tests/operators/test_operator_tables_exact.py \
	    tests/kernels/test_numeric_equivalence.py \
	    tests/operators/test_apply_batched.py::test_coulomb_hybrid_node_run_is_pinned \
	    tests/operators/test_apply_batched.py::test_coulomb_hybrid_node_result_bytes_are_pinned \
	    tests/operators/test_apply_batched.py::test_reference_apply_result_bytes_are_pinned -q

## des-smoke: reduced-scale DES-core benchmark — a 500-rank stealing
## run against the legacy engine's pinned outputs, plus the committed
## BENCH_cluster.json >=10x core/legacy events/sec audit (full scale:
## drop the REPRO_BENCH_SCALE override; regenerate the core record
## with REPRO_BENCH_WRITE=1)
des-smoke:
	REPRO_BENCH_SCALE=0.1 $(PYTHON) -m pytest benchmarks/test_des_core.py -q

## trace-check: just the dynamic happens-before tests
trace-check:
	$(PYTHON) -m pytest -q tests/lint/test_trace_check.py \
	    tests/integration/test_trace_consistency.py
