# Convenience targets for the temporal-mst reproduction.

PYTHON ?= python

.PHONY: install test identity chaos bench bench-full bench-parallel bench-sliding bench-dst bench-check bench-e2e bench-e2e-compare pybench examples report quickcheck ci lint typecheck clean

# Bench defaults (override: make bench BENCH_SCALE=full BENCH_REPEATS=9).
BENCH_SCALE ?= smoke
BENCH_REPEATS ?= 5
BENCH_OUT ?= BENCH_PR2.json
BENCH_BASELINE ?= benchmarks/baseline_smoke.json
BENCH_JOBS ?= 4
BENCH_PARALLEL_OUT ?= BENCH_PR4.json
BENCH_SLIDING_OUT ?= BENCH_PR5.json
BENCH_DST_OUT ?= BENCH_PR10.json

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# CI's "Identity suites must not skip" step: the byte-identity suites
# (columnar store, DST kernels, rooted instances, generator draws, CSR
# adjacency walks) against the frozen scalar oracles and pins, plus the
# sliding engine against the per-window cold trees and the sweep
# experiment's row pins, failing on any test failure or skip.  A skip
# shows as a `-rs` "SKIPPED [n] file:line: reason" line: pyproject's
# addopts "-q" plus this "-q" suppress the final "N skipped" counts
# line.
IDENTITY_REPORT ?= build/identity-report.txt

identity:
	@mkdir -p $(dir $(IDENTITY_REPORT))
	@status=0; \
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_property_columnar.py \
		tests/test_property_kernels.py tests/test_property_rooted.py \
		tests/test_temporal_generators.py \
		tests/test_property_adjacency.py \
		tests/test_property_incremental.py -q -rs \
		> $(IDENTITY_REPORT) 2>&1 || status=$$?; \
	cat $(IDENTITY_REPORT); \
	if grep -Eq "^SKIPPED \[|[0-9]+ skipped" $(IDENTITY_REPORT); then \
		echo "error: identity suite skipped -- the byte-identity contract is unchecked"; \
		exit 1; \
	fi; \
	exit $$status

# The fault-injection suite alone: seeded chaos schedules asserting
# byte-identical output and populated recovery counters.
chaos:
	$(PYTHON) -m pytest tests/ -m chaos

# The deterministic perf suite (repro.perf): median-of-N timings to a
# schema-versioned JSON document.
bench:
	$(PYTHON) -m repro bench --scale $(BENCH_SCALE) --repeats $(BENCH_REPEATS) --out $(BENCH_OUT)

bench-full:
	$(MAKE) bench BENCH_SCALE=full

# The parallel_speedup family at full scale: serial reference vs the
# batch engine at jobs 1/2/4 (the committed BENCH_PR4.json evidence).
bench-parallel:
	$(PYTHON) -m repro bench --scale full --repeats $(BENCH_REPEATS) \
		--jobs $(BENCH_JOBS) --out $(BENCH_PARALLEL_OUT)

# The sliding_sweep family at full scale: SlidingEngine sweeps, each
# window one query over the parent graph's columns (MST_a by Algorithm
# 1, MST_w by the cold pipeline; BENCH_PR5.json holds older evidence).
bench-sliding:
	$(PYTHON) -m repro bench --scale full --repeats $(BENCH_REPEATS) \
		--only sliding_msta_incremental --only sliding_mstw_incremental \
		--out $(BENCH_SLIDING_OUT)

# The dst_kernels family at full scale: the frozen scalar MST_w ladder
# (repro.perf.legacy scalar_*) vs the batched density kernels (the
# committed BENCH_PR10.json evidence).
bench-dst:
	$(PYTHON) -m repro bench --scale full --repeats $(BENCH_REPEATS) \
		--only dst_kernels_charikar_scalar --only dst_kernels_charikar \
		--only dst_kernels_improved_scalar --only dst_kernels_improved \
		--only dst_kernels_pruned_scalar --only dst_kernels_pruned \
		--out $(BENCH_DST_OUT)

# The CI regression gate: run at smoke scale with two workers (as CI's
# bench-smoke job does, so the baseline's jobs=2 scenarios run) and diff
# against the committed baseline (exit 1 on regression).
bench-check:
	$(PYTHON) -m repro bench --scale smoke --repeats $(BENCH_REPEATS) --jobs 2 \
		--out $(BENCH_OUT) --compare $(BENCH_BASELINE) --tolerance 3.0

# The end-to-end benchmark (benchmarks/e2e, declared by BENCHMARK.json):
# four whole workloads, each repeat in a fresh process, to one JSON
# document (about 2 minutes on a 2-CPU host).
E2E_OUT ?= build/e2e.json

bench-e2e:
	@mkdir -p $(dir $(E2E_OUT))
	$(PYTHON) benchmarks/e2e/run.py --out $(E2E_OUT)

# Compare two bench-e2e documents against the BENCHMARK.json bounds:
#   make bench-e2e-compare BASE=base.json NEW=new.json   (exit 1 on regression)
bench-e2e-compare:
	@if [ -z "$(BASE)" ] || [ -z "$(NEW)" ]; then \
		echo "usage: make bench-e2e-compare BASE=base.json NEW=new.json"; \
		exit 2; \
	fi
	$(PYTHON) benchmarks/e2e/compare.py $(BASE) $(NEW)

# The legacy pytest-benchmark suite (needs the [test] extra).
pybench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
		echo; \
	done

report:
	$(PYTHON) -m repro experiment all --quick --markdown report.md
	@echo "wrote report.md"

quickcheck:
	$(PYTHON) -m pytest tests/ -x -q -k "not property and not examples"

# What the GitHub Actions workflow runs: the tier-1 suite plus lint.
# ruff is optional locally (the workflow installs it); a missing ruff
# falls back to a byte-compile pass so `make ci` still catches syntax
# errors anywhere.  The repo's own invariant linter (repro.analysis)
# needs only the stdlib and always runs.
ci: test lint

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; running compileall instead"; \
		$(PYTHON) -m compileall -q src tests; \
	fi
	PYTHONPATH=src $(PYTHON) -m repro.analysis src tests
	PYTHONPATH=src $(PYTHON) -m repro.analysis --project \
		--baseline lint-baseline.json src

# The strict typing gate over the clean-file list in pyproject.toml.
# mypy is optional locally (the typecheck CI job installs it).
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (CI runs the typecheck job)"; \
	fi

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
