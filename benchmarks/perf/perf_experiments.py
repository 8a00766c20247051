"""Experiment wall-time benchmark: fixed slices of the paper's runs.

Measures host wall time of a fixed Table-3 slice and a one-app Figure-7
slice (both fully deterministic in *simulated* results), plus — with
``--tier1`` — the whole tier-1 test suite.  The seed baseline (the repo
before the fast-path engine) is kept in the output for before/after
comparison::

    PYTHONPATH=src python benchmarks/perf/perf_experiments.py --tier1 \
        --out BENCH_experiments.json

``--check BENCH_experiments.json`` re-measures the two slices and fails
when either exceeds ``--max-slowdown`` x its recorded wall time — the CI
regression guard (``make bench-perf-check``); it never rewrites the
baseline and skips the tier-1 timing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from time import perf_counter
from typing import Dict, Optional

from repro.bench.runner import run_figure, run_table3

#: Wall time of ``PYTHONPATH=src python -m pytest -x -q`` on the seed
#: tree (before the engine fast path and hot-path optimization), on the
#: same host the optimized numbers were recorded on.
SEED_TIER1_WALL_S = 50.05

TABLE3_ITERATIONS = 3
FIGURE_APPS = ["netperf_rr"]

#: The head-to-head study slice: the full 4-variant matrix over one
#: micro-op plus the single-machine migration scenario (the study's
#: heaviest cell family), serial.
STUDY_SLICE_SPEC = {
    "name": "perf-slice",
    "micro_benches": ["DevNotify"],
    "micro_guest_hvs": ["kvm"],
    "micro_iterations": 5,
    "app_names": [],
    "migration": True,
    "cluster_hosts": 0,
}


def bench_table3_slice() -> Dict[str, float]:
    t0 = perf_counter()
    run_table3(iterations=TABLE3_ITERATIONS)
    return {"iterations": TABLE3_ITERATIONS, "wall_s": perf_counter() - t0}


def bench_app_figure_slice() -> Dict[str, object]:
    t0 = perf_counter()
    run_figure("7", apps=FIGURE_APPS)
    return {"figure": "7", "apps": FIGURE_APPS, "wall_s": perf_counter() - t0}


def bench_study_slice() -> Dict[str, object]:
    from repro.study import StudySpec, run_study

    spec = StudySpec.from_dict(STUDY_SLICE_SPEC)
    t0 = perf_counter()
    run_study(spec, seed=0, jobs=1)
    return {"spec": spec.name, "wall_s": perf_counter() - t0}


#: The scenario-generator slice: generate a small campaign and run it
#: serially (both topologies, all three arches — dominated by stack
#: builds, so it guards the cross-arch build/dispatch hot path).
SCENARIO_SLICE = {"seed": 0, "count": 6}


def bench_scenario_gen_slice() -> Dict[str, object]:
    from repro.scenarios import generate_specs, run_scenarios

    t0 = perf_counter()
    specs = generate_specs(**SCENARIO_SLICE)
    run_scenarios(specs)
    return {"count": SCENARIO_SLICE["count"], "wall_s": perf_counter() - t0}


def bench_tier1() -> Dict[str, float]:
    """Time the full tier-1 suite in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q"],
        check=True,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    wall = perf_counter() - t0
    return {
        "seed_wall_s": SEED_TIER1_WALL_S,
        "wall_s": wall,
        "speedup_vs_seed": SEED_TIER1_WALL_S / wall,
    }


def run_benchmarks(tier1: bool, carry_from: Optional[str] = None) -> Dict[str, object]:
    results: Dict[str, object] = {
        "table3_slice": bench_table3_slice(),
        "app_figure_slice": bench_app_figure_slice(),
        "study_slice": bench_study_slice(),
        "scenario_gen": bench_scenario_gen_slice(),
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
    }
    if tier1:
        results["tier1"] = bench_tier1()
    elif carry_from and os.path.exists(carry_from):
        # Keep the last recorded tier-1 timing when not re-measuring.
        try:
            with open(carry_from) as fh:
                prev = json.load(fh)
            if "tier1" in prev:
                results["tier1"] = prev["tier1"]
        except (OSError, ValueError):
            pass
    return results


def check_against(
    results: Dict[str, object], baseline_path: str, max_slowdown: float
) -> list:
    """Compare measured slice wall times against a recorded baseline.

    Returns the list of slices exceeding ``max_slowdown`` x baseline.
    """
    with open(baseline_path) as fh:
        base = json.load(fh)
    failures = []
    for key in ("table3_slice", "app_figure_slice", "study_slice", "scenario_gen"):
        if key not in base:
            # Baseline predates this slice: measure but don't gate.
            print(f"{key:18s} {results[key]['wall_s']:.2f}s (no baseline)")
            continue
        got = results[key]["wall_s"]
        ref = base[key]["wall_s"]
        ratio = got / ref
        status = "ok" if ratio <= max_slowdown else "FAIL"
        print(
            f"{key:18s} {got:.2f}s vs baseline {ref:.2f}s "
            f"= {ratio:.2f}x ({status}, limit {max_slowdown:g}x)"
        )
        if ratio > max_slowdown:
            failures.append(key)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write results to this JSON file")
    parser.add_argument(
        "--tier1",
        action="store_true",
        help="also time the full tier-1 test suite (adds its full runtime)",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="JSON",
        help="compare slice wall times against this recorded baseline "
        "instead of writing one; fail past --max-slowdown",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=5.0,
        help="allowed wall-time ratio vs the --check baseline; generous "
        "because CI hosts differ from the recording host "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)

    results = run_benchmarks(tier1=args.tier1, carry_from=args.out)
    print(f"table3 slice      {results['table3_slice']['wall_s']:.2f}s")
    print(f"app figure slice  {results['app_figure_slice']['wall_s']:.2f}s")
    print(f"study slice       {results['study_slice']['wall_s']:.2f}s")
    print(f"scenario gen      {results['scenario_gen']['wall_s']:.2f}s")
    if "tier1" in results:
        t1 = results["tier1"]
        print(
            f"tier-1 suite      {t1['wall_s']:.2f}s "
            f"(seed {t1['seed_wall_s']:.2f}s, {t1['speedup_vs_seed']:.2f}x)"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.check:
        failures = check_against(results, args.check, args.max_slowdown)
        if failures:
            print(f"FAIL: regression in {', '.join(failures)}", file=sys.stderr)
            return 1
        print("OK: within baseline tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
