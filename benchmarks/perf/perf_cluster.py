"""Cluster wall-time benchmark: fixed multi-host scenarios.

Measures host wall time of three deterministic fleet slices — a 4-host
boot, a single cross-host DVH migration, and the 200-host dc fleet —
and records the simulated-side figures (fabric bytes, downtime)
alongside, so a run that got "faster" by simulating less is caught, not
celebrated::

    PYTHONPATH=src python benchmarks/perf/perf_cluster.py --out BENCH_cluster.json

``--check BENCH_cluster.json`` re-measures and fails when a slice
exceeds ``--max-slowdown`` x its recorded wall time, or when any
recorded simulated figure changed at all (those are seed-deterministic;
a drift is a correctness bug, not noise).  The CI regression guard
(``make bench-perf-check``) runs exactly that.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from time import perf_counter
from typing import Dict

SEED = 0


def bench_boot() -> Dict[str, object]:
    """Boot a 4-host cluster (8 full hypervisor stacks' worth of build
    work) and place the standard fleet."""
    from repro.cluster import Cluster
    from repro.scenarios import mixed_tenant_draws

    t0 = perf_counter()
    cluster = Cluster(num_hosts=4, seed=SEED, policy="spread")
    for draw in mixed_tenant_draws(6):
        cluster.place(draw.to_tenant_spec())
    wall = perf_counter() - t0
    return {
        "wall_s": wall,
        "sim_cycles": cluster.sim.now,
        "tenants_per_host": sorted(len(h.tenants) for h in cluster.hosts),
    }


def bench_migration() -> Dict[str, object]:
    """One cross-host vp migration with a dirtying tenant."""
    from repro.cluster import Cluster, TenantSpec

    t0 = perf_counter()
    cluster = Cluster(num_hosts=2, seed=SEED, policy="spread")
    cluster.place(
        TenantSpec(name="t", io_model="vp", memory_gb=8, dirty_pages=128)
    )
    src = cluster.host_of("t")
    dst = [h for h in cluster.hosts if h.name != src.name][0]
    record = cluster.migrate("t", dst.name)
    wall = perf_counter() - t0
    return {
        "wall_s": wall,
        "downtime_ms": round(record.result.downtime_s * 1e3, 3),
        "rounds": record.result.rounds,
        "fabric_migration_bytes": cluster.fabric.metrics.cross_host_bytes(
            "migration"
        ),
    }


def bench_dc_fleet() -> Dict[str, object]:
    """The 200-host spine-leaf fleet under a full control-plane
    lifecycle: 40 tenant admissions, threshold rebalancing, and a
    rolling kernel upgrade of every rack under tenant traffic.  The
    quiescent-host optimization is what keeps this slice in single-digit
    seconds — only touched hosts ever build a stack."""
    from repro.dc import load_spec, run_dc

    t0 = perf_counter()
    dc = run_dc(load_spec("fleet"), seed=SEED)
    wall = perf_counter() - t0
    control = dc.control.report()
    return {
        "wall_s": wall,
        "sim_cycles": dc.sim.now,
        "digest": dc.digest(),
        "hosts_booted": sum(1 for h in dc.hosts if h.booted),
        "admitted": control["admitted"],
        "pinned_per_wave": control["pinned_per_wave"],
        "upgraded_total": control["upgraded_total"],
        "rebalance_moves": control["rebalance_moves"],
        "trunk_bytes": dc.fabric.stats()["trunk_bytes"],
    }


#: Simulated-side keys that must be bit-identical run to run; wall_s is
#: the only field allowed to vary.
_DETERMINISTIC_KEYS = {
    "boot": ("sim_cycles", "tenants_per_host"),
    "migration": ("downtime_ms", "rounds", "fabric_migration_bytes"),
    "dc_fleet": (
        "sim_cycles",
        "digest",
        "hosts_booted",
        "admitted",
        "pinned_per_wave",
        "upgraded_total",
        "rebalance_moves",
        "trunk_bytes",
    ),
}


def run_benchmarks() -> Dict[str, object]:
    return {
        "boot": bench_boot(),
        "migration": bench_migration(),
        "dc_fleet": bench_dc_fleet(),
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
    }


def check_against(results, baseline_path: str, max_slowdown: float) -> int:
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures = []
    for name, keys in _DETERMINISTIC_KEYS.items():
        mine, theirs = results[name], baseline[name]
        budget = theirs["wall_s"] * max_slowdown
        if mine["wall_s"] > budget:
            failures.append(
                f"{name}: {mine['wall_s']:.3f}s exceeds "
                f"{theirs['wall_s']:.3f}s x {max_slowdown:g}"
            )
        for key in keys:
            if mine[key] != theirs[key]:
                failures.append(
                    f"{name}.{key}: {mine[key]!r} != recorded {theirs[key]!r} "
                    "(seed-deterministic value drifted)"
                )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"OK: all slices within {max_slowdown:g}x of {baseline_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write results to this JSON file")
    parser.add_argument(
        "--check",
        default=None,
        metavar="JSON",
        help="compare against this recorded baseline and fail on regression",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=8.0,
        help="allowed wall-time ratio vs the baseline; generous because "
        "CI hosts differ from the recording host (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    results = run_benchmarks()
    for name in ("boot", "migration", "dc_fleet"):
        print(f"{name:12s} {results[name]['wall_s']:.3f}s host wall")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.check:
        return check_against(results, args.check, args.max_slowdown)
    return 0


if __name__ == "__main__":
    sys.exit(main())
