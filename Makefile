# Convenience targets for the DVH reproduction.

.PHONY: install test lint bench bench-perf bench-perf-check fuzz fuzz-smoke \
	audit audit-smoke scenarios scenarios-smoke reach figures examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Lint (config in ruff.toml).  CI installs ruff; on hosts without it the
# target skips with a notice rather than failing -- the simulator itself
# has no dependencies beyond the standard library.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint (CI runs it; pip install ruff)"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only

# Trap-chain fuzzing (see docs/faults.md).  The full campaign is the
# documented 500-episode sweep; the smoke run is wired into CI and checks
# that the same campaign is byte-identical serial, under --jobs, and with
# fast-forward disabled.
fuzz:
	PYTHONPATH=src python -m repro faults fuzz --episodes 500 --seed 1

fuzz-smoke:
	PYTHONPATH=src python -m repro faults fuzz --episodes 25 --seed 1 --json > /tmp/fuzz_serial.json
	PYTHONPATH=src python -m repro faults fuzz --episodes 25 --seed 1 --json --jobs 2 > /tmp/fuzz_jobs.json
	diff /tmp/fuzz_serial.json /tmp/fuzz_jobs.json
	REPRO_FAST_FORWARD=0 PYTHONPATH=src python -m repro faults fuzz --episodes 25 --seed 1 --json > /tmp/fuzz_noff.json
	diff /tmp/fuzz_serial.json /tmp/fuzz_noff.json

# Runtime invariant audit (see docs/faults.md): the migration/cluster
# fault matrix plus generated and fuzz scenario specs with every
# lifecycle/conservation check armed.  Wired into CI; reverting the migration-teardown fixes
# turns it red.
audit:
	PYTHONPATH=src python -m repro audit --episodes 500 --seed 1

audit-smoke:
	PYTHONPATH=src python -m repro audit --episodes 25 --seed 1

# Constrained-random scenarios (see docs/scenarios.md).  The full run is
# the documented 200-scenario audited campaign; the smoke run is wired
# into CI and checks seed-stable replay both ways: gen twice must be
# byte-identical, and the same campaign must pass serial, under --jobs,
# and with fast-forward disabled.
scenarios:
	PYTHONPATH=src python -m repro scenarios run --count 200 --seed 0 --jobs 0 --audit

scenarios-smoke:
	PYTHONPATH=src python -m repro scenarios gen --count 20 --seed 1 > /tmp/scen_a.jsonl
	PYTHONPATH=src python -m repro scenarios gen --count 20 --seed 1 > /tmp/scen_b.jsonl
	diff /tmp/scen_a.jsonl /tmp/scen_b.jsonl
	PYTHONPATH=src python -m repro scenarios run --count 10 --seed 1 --json > /tmp/scen_run_serial.json
	PYTHONPATH=src python -m repro scenarios run --count 10 --seed 1 --json --jobs 2 > /tmp/scen_run_jobs.json
	diff /tmp/scen_run_serial.json /tmp/scen_run_jobs.json
	REPRO_FAST_FORWARD=0 PYTHONPATH=src python -m repro scenarios run --count 10 --seed 1 --json > /tmp/scen_run_noff.json
	diff /tmp/scen_run_serial.json /tmp/scen_run_noff.json

# Reachability check (see tools/reachability.py): every function of
# src/repro is entered by a CLI result path or allowlisted with a reason.
# Wired into CI; exits 1 on an unreached function outside the allowlist,
# a stale or now-reached allowlist entry, or a path that crashes.
reach:
	PYTHONPATH=src python tools/reachability.py --summary

# Host-time floors (see docs/performance.md): record perf_engine.py's run.
bench-perf:
	PYTHONPATH=src python benchmarks/perf/perf_engine.py --out BENCH_engine.json

# CI guard: re-measure and check every perf_engine floor, each raised to
# the committed record divided by a generous slowdown (CI hosts differ
# from the recording host); a genuine mechanism regression still trips.
bench-perf-check:
	PYTHONPATH=src python benchmarks/perf/perf_engine.py --check --baseline BENCH_engine.json

figures:
	python -m repro table3
	python -m repro figure 7
	python -m repro figure 8
	python -m repro figure 9
	python -m repro figure 10
	python -m repro migration

examples:
	python examples/quickstart.py
	python examples/exit_multiplication.py
	python examples/live_migration.py
	python examples/cloud_stack.py
	python examples/why_is_it_slow.py
	python examples/custom_workload.py
	python examples/datacenter.py

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
