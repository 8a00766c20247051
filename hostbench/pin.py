"""Re-pin the digests in ``hostbench/pinned.json``.

Usage (from the repository root)::

    python3 hostbench/pin.py

Runs one round of each workload at each of its simulation seeds, plus
the held-out fleet seed, and writes every cell digest.  Pinned digests
change only in a change that deliberately changes simulated output,
which re-pins them as its own benchmark change (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import cells

    pinned: dict = {}
    meter = run.SetupMeter()
    for workload in cells.WORKLOADS:
        seeds = cells.sim_seeds(workload)
        if workload == "dc_fleet":
            seeds += (cells.HELD_OUT_FLEET_SEED,)
        for seed in seeds:
            rnd = run.run_round(cells.seed_cells(workload, seed), meter)
            if rnd.errors:
                for cell_id, tb in rnd.errors.items():
                    print(f"{cell_id} raised:\n{tb}", file=sys.stderr)
                return 1
            digests = cells.cell_digests(workload, rnd.payloads)
            pinned.setdefault(workload, {})[f"seed{seed}"] = dict(sorted(digests.items()))
            print(f"{workload} seed{seed}: {len(digests)} digests", flush=True)
    with open(run.PINNED, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
