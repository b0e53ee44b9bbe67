# Developer entry points.  `make verify` is the tier-1 gate; `make
# test-all` additionally runs the slow-marked golden regressions.

PY := PYTHONPATH=src python

.PHONY: verify test test-all bench bench-smoke opbench-test lint goldens goldens-check reproduce trace-smoke chaos-smoke campaign-smoke dse-smoke obs-smoke coverage clean-cache

verify: test

test:
	$(PY) -m pytest -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; pip install -e '.[dev]' to enable linting"; \
	fi

test-all:
	$(PY) -m pytest -x -q -m ""

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -q

# Tiny sweep benchmark (synthetic trace; single-config runs must cost
# at most 2x a sweep per config; the replay-cost sweep must repeat its
# results) plus the suites it depends on: the recorded-output
# regressions of the simulator and of trace synthesis, the exactness
# of the simulator's buffered draws and clipping, sweep semantics, the
# workload unit tests, and the suites of the callers that group points
# into sweeps (the service worker's batches and the DSE's
# generations); the CI companion of the full
# `pytest benchmarks/test_sweep_bench.py` run that appends to
# BENCH_simulator.json (see docs/performance.md).
bench-smoke:
	REPRO_BENCH_SMOKE=1 $(PY) -m pytest benchmarks/test_sweep_bench.py -x -q
	$(PY) -m pytest tests/test_sim_regression.py tests/test_batchsim_equivalence.py \
		tests/test_simulator_exactness.py \
		tests/test_trace_regression.py tests/test_workloads.py \
		tests/test_service_vector.py tests/test_dse.py -x -q

# The benchmark's own tests (opbench/, see opbench/README.md): its
# workloads, layer probes and contract with BENCHMARK.json.  They fail
# when a program name the probes patch moves.
opbench-test:
	python -m pytest opbench -q

goldens:
	$(PY) -m repro.runtime.goldens --update

goldens-check:
	$(PY) -m repro.runtime.goldens --check

reproduce:
	$(PY) -m repro.experiments.runall --fast --jobs 4 --json report.json

# 30-second seeded chaos soak: the full service (process pools, shared
# trace store, result cache) under worker kills, shm unlinks and cache
# corruption, refereed by the differential oracle.  Fails on any
# silently wrong answer; the same --seed replays the identical fault
# schedule (see docs/testing.md).
chaos-smoke:
	$(PY) -m repro chaos --seed 42 --duration 30

# CI-sized fault-injection campaign: 16 runs of the canned MSR bit-flip
# faultload on two workers, then validate that the HTML report parses
# (see docs/campaigns.md).  Deterministic: --seed 42 replays the exact
# same faultloads and report bytes.
campaign-smoke:
	$(PY) -m repro campaign run --spec msr_bitflip_nginx --seed 42 \
		--samples 4 --jobs 2 --out campaign-smoke.out
	$(PY) -c "from html.parser import HTMLParser; \
		html = open('campaign-smoke.out/index.html').read(); \
		p = HTMLParser(); p.feed(html); p.close(); \
		print('campaign HTML ok (%d bytes)' % len(html))"
	@rm -rf campaign-smoke.out

# CI-sized design-space exploration: the canned 2-generation x
# 8-genome nginx search (NSGA-II over deadline/strategy/offset/corner/
# IMUL depth), then validate that the Pareto dashboard parses (see
# docs/dse.md).  Deterministic: same seed, same report bytes; finishes
# in about a second.
dse-smoke:
	$(PY) -m repro dse run --search nginx_quick --out dse-smoke.out
	$(PY) -c "from html.parser import HTMLParser; \
		html = open('dse-smoke.out/index.html').read(); \
		p = HTMLParser(); p.feed(html); p.close(); \
		print('dse HTML ok (%d bytes)' % len(html))"
	@rm -rf dse-smoke.out

# Observability smoke: one in-process service with thread workers
# drives 50 requests while the scraper samples windowed metrics on a
# fake clock; asserts one service.submit -> worker.execute span tree
# per request (no orphan spans, children inside their parents), a
# windowed p95 diverging from the cumulative one, a burn-rate alert
# firing then resolving, and an html.parser-valid dashboard (see
# docs/observability.md).  Exit 1 on any failed check.
obs-smoke:
	$(PY) -m repro obs smoke --out obs-smoke.out
	@rm -rf obs-smoke.out

# Tier-1 suite with line coverage (requires pytest-cov: pip install
# -e '.[dev]').  CI enforces the floor; ratchet it upward, never down.
coverage:
	$(PY) -m pytest -x -q --cov=repro --cov-report=term --cov-fail-under=78

# Run a small experiment with execution tracing on and schema-check the
# resulting Chrome trace (see docs/observability.md).
trace-smoke:
	$(PY) -m repro trace fig15_strategies --out trace-smoke.json --validate
	@rm -f trace-smoke.json

clean-cache:
	$(PY) -c "from repro.runtime.cache import ResultCache; print(ResultCache().clear(), 'entries removed')"
