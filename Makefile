# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test bench bench-save bench-compare bench-ladder \
	experiments paper examples docs-check all lint lint-baseline \
	lint-sarif typecheck contracts-test verify serve chaos slo-save \
	scale-smoke scenario-smoke

# --- correctness tooling (docs/STATIC_ANALYSIS.md) ---------------------
# `lint` always runs the in-repo repro-lint analyzer (statement rules +
# call-graph/dataflow passes) against the committed baseline and fails on
# any non-baselined finding; ruff and mypy are optional locally (this
# container does not ship them) and mandatory in the CI lint job.
# PYTHONDONTWRITEBYTECODE keeps the run byte-cache independent: no
# __pycache__ churn under tools/ from linting alone.

lint:
	PYTHONPATH=tools PYTHONDONTWRITEBYTECODE=1 $(PYTHON) -m repro_lint \
		--baseline .repro-lint-baseline.json src benchmarks examples
	@if $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tools; \
	else \
		echo "ruff not installed locally; skipped (CI runs it)"; \
	fi

# Ratify the current findings into .repro-lint-baseline.json. Policy:
# the committed baseline stays empty — use this only as a migration aid
# when landing a new pass, then burn the baseline back down.
lint-baseline:
	PYTHONPATH=tools PYTHONDONTWRITEBYTECODE=1 $(PYTHON) -m repro_lint \
		--baseline .repro-lint-baseline.json --write-baseline \
		src benchmarks examples

# Emit the SARIF log CI uploads for code scanning.
lint-sarif:
	PYTHONPATH=tools PYTHONDONTWRITEBYTECODE=1 $(PYTHON) -m repro_lint \
		--format sarif src benchmarks examples > repro-lint.sarif || true
	@echo "wrote repro-lint.sarif"

typecheck:
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy -p repro.core -p repro.utils -p repro.contracts \
			-p repro.detection -p repro.service -p repro.scenarios; \
	else \
		echo "mypy not installed locally; skipped (CI runs it)"; \
	fi

contracts-test:
	$(PYTHON) -m pytest tests/test_contracts.py tests/utils/test_validation.py tests/tools -q
	REPRO_CONTRACTS=0 $(PYTHON) -m pytest tests/test_contracts.py -q

verify: lint typecheck test

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# --- benchmark trajectory (docs/PERFORMANCE.md) ------------------------
# bench-save runs the full benchmark suite (timings AND the perf
# assertions, e.g. parallel bit-identity and the vectorized >=5x check)
# plus the tier ladder, and normalizes everything into the next
# BENCH_<n>.json at the repo root; bench-compare diffs the two newest
# snapshots (per-tier included) and exits non-zero on a >20% regression
# (`--against N` diffs the newest against an arbitrary older snapshot).
# bench-ladder on its own prints the numpy/compiled table and
# re-checks the cross-tier bit-identity contract.

bench-save:
	REPRO_BENCH_MEMORY=1 $(PYTHON) -m pytest benchmarks/ \
		--benchmark-json=.bench_raw.json
	PYTHONPATH=src $(PYTHON) tools/bench_ladder.py \
		--output .bench_ladder.json
	$(PYTHON) tools/bench_snapshot.py .bench_raw.json \
		--ladder .bench_ladder.json
	@rm -f .bench_raw.json .bench_ladder.json

bench-ladder:
	PYTHONPATH=src $(PYTHON) tools/bench_ladder.py

bench-compare:
	$(PYTHON) tools/bench_compare.py

# Large-N smoke over the array core: 10^5-node flooded fastsim plus 10^4
# batched Chord lookups under one wall budget, timings + peak RSS in
# scale-smoke.json. `--nodes 1000000` exercises the million-node path.
scale-smoke:
	PYTHONPATH=src $(PYTHON) tools/scale_smoke.py --output scale-smoke.json

# Every committed zoo scenario on both packet engines: asserts the
# cross-engine injection-schedule contract and writes the delivery ×
# detection-quality matrix (scenario-smoke.json).
scenario-smoke:
	PYTHONPATH=src $(PYTHON) tools/scenario_smoke.py --quick --budget 300 \
		--output scenario-smoke.json

# --- evaluation service (docs/SERVICE.md) ------------------------------
# serve boots the HTTP façade locally; chaos runs the full fault drill
# (worker kills mid-campaign, latency injection, spike load) and fails
# unless every robustness assertion holds; slo-save additionally commits
# the SLO report as the next SLO_<n>.json-style snapshot.

serve:
	PYTHONPATH=src $(PYTHON) -m repro.service

chaos:
	PYTHONPATH=src $(PYTHON) tools/chaos_service.py --quick

slo-save:
	PYTHONPATH=src $(PYTHON) tools/chaos_service.py --output SLO_1.json

experiments:
	$(PYTHON) -m repro.experiments.runner --all --no-plot

paper:
	$(PYTHON) -m repro.experiments.runner --paper-only

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f > /dev/null || exit 1; done; echo "all examples OK"

all: test bench experiments
