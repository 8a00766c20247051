"""Steadiness report: repeat one workload K times and show the spread.

Usage (from the repository root)::

    python3 hostbench/steady.py --workload paper --runs 10 [--seconds 20]

Runs ``run.py`` K times serially, each in a fresh process with another
``--seed`` (seed-first, seed-first+1, ...).  For each end-to-end metric it prints the median, the
quartiles and the interquartile range as a share of the median --
normalized (the reported metric) beside raw seconds -- plus the spread
of the calibration chunk itself.  This is the evidence the bounds in
``BENCHMARK.json`` are set from.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    diag = next(json.loads(line[len("# diagnostics "):]) for line in lines
                if line.startswith("# diagnostics "))
    return {"result": json.loads(lines[-1]), "diag": diag}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed-first", type=int, default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to show a spread")

    runs = []
    for i in range(args.runs):
        rec = run_once(args.workload, args.seed_first + i, args.seconds)
        runs.append(rec)
        m = rec["result"]["metrics"]
        print(f"run {i + 1}/{args.runs} seed {args.seed_first + i}: "
              + "  ".join(f"{k}={v['value']:.4f}" for k, v in m.items())
              + f"  cal={rec['diag']['cal_median_s'] * 1e3:.3f}ms"
              + f"  correct={rec['result']['correct']}", flush=True)
    rows = [(name, [r["result"]["metrics"][name]["value"] for r in runs])
            for name in runs[0]["result"]["metrics"]]
    rows += [(f"raw {key[4:]}", [r["diag"][key] for r in runs])
             for key in ("raw_setup_s", "raw_run_s", "raw_gc_s")]
    rows.append(("calibration chunk", [r["diag"]["cal_median_s"] for r in runs]))
    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':20s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'iqr/med':>8s}")
    for name, values in rows:
        med, q1, q3, share = spread(values)
        print(f"{name:20s} {med:10.4f} {q1:10.4f} {q3:10.4f} {share:8.1%}")
    failed = sum(r["result"]["failed"] for r in runs)
    print(f"cells failed: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
