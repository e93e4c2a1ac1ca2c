# Developer entry points.  Everything runs from a plain checkout with
# `pip install -e .[dev]` (or PYTHONPATH=src, which these targets set).

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test test-parallel test-faults test-service test-service-chaos test-search docs-check bench bench-smoke bench-large bench-large-smoke perf-check profile report dashboard serve all

## the tier-1 suite (unit + integration + property tests)
test:
	$(PYTEST) -x -q

## the sweep-engine determinism/cache/differential suite under a
## real worker pool (ATM_REPRO_TEST_JOBS raises the pool width)
test-parallel:
	ATM_REPRO_TEST_JOBS=4 $(PYTEST) -q tests/harness tests/integration

## the chaos suite: worker kills, timeouts, store corruption, resume
## (docs/robustness.md); asserts byte-identity against fault-free runs
test-faults:
	ATM_REPRO_TEST_JOBS=4 $(PYTEST) -q tests/harness/test_faults.py

## the service suite: wire protocol, admission control, byte-identity
## over real HTTP, and the 1000-in-flight load-test (docs/service.md)
test-service:
	$(PYTEST) -q tests/service

## the live-server chaos suite: SIGKILL + --resume byte-identity,
## SIGTERM drain under load, --inject-faults vs the retrying load
## generator (docs/service.md, "Crash safety & drain")
test-service-chaos:
	$(PYTEST) -q tests/service/test_chaos.py tests/service/test_drain.py tests/service/test_journal.py

## the design-space search wall: differential fixed points, searcher
## determinism properties, budget metrics, CLI byte-identity
## (docs/search.md)
test-search:
	$(PYTEST) -q tests/search

## execute the documentation's code blocks (pytest marker: docs)
docs-check:
	$(PYTEST) -m docs tests/docs -q

## regenerate every figure/table benchmark and assert shape claims
bench:
	$(PYTEST) benchmarks/ --benchmark-only

## CI gate for the trace engine: writes its record to
## /tmp/BENCH_trace_engine.json (the committed BENCH_trace_engine.json is
## regenerated on purpose with `atm-repro bench --out
## BENCH_trace_engine.json`) and fails unless the cold sweep computed
## one trace per distinct fleet size, the warm sweep none, neither
## streamed, and both are byte-identical: exact counts, no timing
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.harness.cli bench \
		--out /tmp/BENCH_trace_engine.json

## the continental-scale record (not kept in the repository): a
## calibration of the gated in-place pass against the sweepline plus the
## five-platform deadline table at n=10^6 (docs/performance.md,
## "Large-n regime"); slow
bench-large:
	PYTHONPATH=src $(PYTHON) -m repro.harness.cli bench --large \
		--out BENCH_large_n.json

## CI gate for the large-n path: the n=10^5 profile twice, asserting the
## deterministic wall-free tables are byte-identical
bench-large-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.harness.cli bench --large --large-n 100000 \
		--out /tmp/bench_large_a.json --table-out /tmp/bench_large_table_a.json
	PYTHONPATH=src $(PYTHON) -m repro.harness.cli bench --large --large-n 100000 \
		--out /tmp/bench_large_b.json --table-out /tmp/bench_large_table_b.json
	cmp /tmp/bench_large_table_a.json /tmp/bench_large_table_b.json

## the exact check a performance change owes (docs/performance.md,
## "Repository benchmark"): one traced op of report and large_n at seeds
## 2018 and 2019 must reproduce the output digests and per-layer call
## counts pinned in perfbench/pins.json, and one traced 15 s service
## window at the same seeds its schedule-derived sources, cache misses
## and journal lines; fails unless every run ends "correct": true with
## no failed op.  Not a CI job: the pins are only known to reproduce on
## the CPUs and numpy builds they were taken on.
perf-check:
	@for run in report:1 large_n:1 service:15; do w=$${run%:*}; \
	for s in 2018 2019; do \
		$(PYTHON) perfbench/run.py --workload $$w --seed $$s --seconds $${run#*:} --trace 1 \
		| $(PYTHON) -c 'import json, sys; lines = sys.stdin.read().splitlines(); \
			[print(line) for line in lines if line.startswith("CHECK FAILED")]; \
			r = json.loads(lines[-1]); ok = r["correct"] is True and r["failed"] == 0; \
			print("perf-check", *sys.argv[1:], "ok" if ok else "FAILED"); sys.exit(not ok)' \
			$$w $$s || exit 1; \
	done; done

## example profile: span tree for fig4 on the Titan X
profile:
	PYTHONPATH=src $(PYTHON) -m repro.harness.cli profile fig4 \
		--backend cuda:titan-x-pascal

## the full quick-profile reproduction report
report:
	PYTHONPATH=src $(PYTHON) -m repro.harness.cli report --out report.json

## the self-contained HTML dashboard (curves, deadline margins,
## flamegraph, counters) — one offline file, no external references
dashboard:
	PYTHONPATH=src $(PYTHON) -m repro.harness.cli dashboard --out dashboard.html

## the ATM-as-a-service sweep server on the default port, sharing the
## batch harness's result cache (docs/service.md)
serve:
	PYTHONPATH=src $(PYTHON) -m repro.harness.cli serve --port 8018 \
		--jobs 4 --cache-dir .atm-repro-cache

all: test docs-check
