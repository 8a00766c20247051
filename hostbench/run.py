"""Host-time benchmark of the nested-virtualization simulator.

Usage (from the repository root)::

    python3 hostbench/run.py --workload paper --seed 0 --seconds 20 --trace 0

Runs one workload (``paper``, ``dc_fleet`` or ``migration``; see
``hostbench/README.md``) serially in this process, round after round in
a seed-permuted cell order, until ``--seconds`` have passed and at least
``MIN_ROUNDS`` rounds completed.  Every cell's result is checked against
``hostbench/pinned.json``.  The last stdout line is one JSON object::

    {"correct": true, "attempted": 207, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (host time in
reference-host seconds, see ``calib.py``, and peak RSS); with
``--trace 1`` one untraced and one traced round are run and the metrics
are the per-layer ones (see ``layers.py``).  Raw seconds and calibration
times are printed on the lines before, as diagnostics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter
from typing import Callable, Dict, List, Optional

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "pinned.json")
#: Where traced runs write their span files (relative to the cwd).
OUT_DIR = ".hostbench-out"

#: Rounds every untraced run completes, however long they take.
MIN_ROUNDS = 3

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))


class SetupMeter:
    """Intervals spent inside ``build_stack``, wherever it is called."""

    def __init__(self) -> None:
        self.intervals: List[tuple] = []

    def wrap(self, fn: Callable) -> Callable:
        def build_stack(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.intervals.append((start, perf_counter()))

        build_stack.__wrapped__ = fn
        return build_stack


class Round:
    """Timings and results of one pass over every cell."""

    def __init__(self) -> None:
        self.payloads: Dict[str, object] = {}
        self.errors: Dict[str, str] = {}
        #: (cell id, start, collection start, end, build_stack intervals
        #: inside the cell)
        self.records: List[tuple] = []

    def seconds(self, cal: "calib.Calibration") -> Dict[str, float]:
        """Raw and reference-host seconds of set-up and run, calibration
        time excluded.  The collection after each cell counts in run time
        at its raw seconds: it is memory-bound and does not follow the
        calibration chunk (see README.md)."""
        out = dict.fromkeys(
            ("raw_setup_s", "raw_run_s", "raw_gc_s", "setup_s", "run_s"), 0.0)
        for _id, start, gc_start, end, setup in self.records:
            raw, norm = cal.seconds(start, gc_start)
            for s, e in setup:
                setup_raw, setup_norm = cal.seconds(s, e)
                out["raw_setup_s"] += setup_raw
                out["setup_s"] += setup_norm
                raw -= setup_raw
                norm -= setup_norm
            gc_raw, _norm = cal.seconds(gc_start, end)
            out["raw_gc_s"] += gc_raw
            out["raw_run_s"] += raw + gc_raw
            out["run_s"] += norm + gc_raw
        return out


def load_pinned(workload: str) -> Dict[str, str]:
    """Pinned digests for every cell the workload runs; refuses (raises
    KeyError) a simulation seed with no pinned digests."""
    import cells

    with open(PINNED) as fh:
        pinned = json.load(fh)
    expected: Dict[str, str] = {}
    for seed in cells.sim_seeds(workload):
        key = f"seed{seed}"
        if key not in pinned.get(workload, {}):
            raise KeyError(f"no pinned digests for {workload} at simulation seed {seed}")
        expected.update(pinned[workload][key])
    return expected


def collect_garbage(tracer=None) -> None:
    """Collect the cyclic garbage a cell left, inside the cell's timed
    window, so each cell pays for its own teardown."""
    if tracer is None:
        gc.collect()
        return
    frame = tracer.open("gc:collect")
    try:
        gc.collect()
    finally:
        tracer.close(frame)


def run_round(order, meter: SetupMeter, cal=None, tracer=None) -> Round:
    """Run every cell once; a cell that raises is recorded, not fatal.
    With ``cal``, host speed is sampled before every cell and after the
    last one (the interval timer samples in between)."""
    rnd = Round()
    for cell in order:
        if cal is not None:
            cal.sample()
        first_build = len(meter.intervals)
        frame = tracer.open("hostbench:cell") if tracer is not None else None
        start = perf_counter()
        try:
            rnd.payloads[cell.id] = cell.run()
        except Exception:  # a failing cell is counted, the run goes on
            rnd.errors[cell.id] = traceback.format_exc()
        gc_start = perf_counter()
        collect_garbage(tracer)
        end = perf_counter()
        if frame is not None:
            tracer.close(frame)
        rnd.records.append((cell.id, start, gc_start, end, meter.intervals[first_build:]))
    if cal is not None:
        cal.sample()
    return rnd


def check_round(workload: str, rnd: Round, expected: Dict[str, str]) -> List[str]:
    """Ids of failed checks: cells that raised, cells whose digest is
    missing or differs, and whole-round digests (keys without a ``/``,
    such as the study digest) that differ."""
    import cells

    actual = cells.cell_digests(workload, rnd.payloads)
    failed = [r[0] for r in rnd.records
              if actual.get(r[0]) is None or actual[r[0]] != expected.get(r[0])]
    # A whole-round digest is a function of the cells' results, so it
    # can only differ on its own when every cell matched.
    whole = [k for k in expected if "/" not in k and actual.get(k) != expected[k]]
    for cell_id, tb in rnd.errors.items():
        print(f"# cell {cell_id} raised:\n{tb}", file=sys.stderr)
    return failed or whole


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rounds: List[Round], cal) -> tuple:
    """End-to-end metrics (medians over rounds) plus raw diagnostics."""
    per_round = [r.seconds(cal) for r in rounds]

    def median(key):
        return statistics.median(t[key] for t in per_round)

    metrics = {
        "setup_s": median("setup_s"),
        "run_s": median("run_s"),
        "peak_rss_mb": peak_rss_mb(),
    }
    chunks = cal.chunk_times()
    diagnostics = {
        "rounds": len(rounds),
        "raw_setup_s": median("raw_setup_s"),
        "raw_run_s": median("raw_run_s"),
        "raw_gc_s": median("raw_gc_s"),
        "per_round": per_round,
        "cal_median_s": statistics.median(chunks),
        "cal_quartiles_s": statistics.quantiles(chunks, n=4),
        "cal_samples": len(chunks),
    }
    return metrics, diagnostics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="permutes the cell order of every round")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # the program under test
    except ImportError as exc:
        print(f"hostbench: cannot import repro from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import cells
    import spans

    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"hostbench: repro imported from {repro.__file__}, not {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        order_cells = cells.workload_cells(args.workload)
        expected = load_pinned(args.workload)
    except (ValueError, KeyError, OSError) as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 2

    meter = SetupMeter()
    inst = spans.Instrumentation()
    inst.rebind("repro.hv.stack", "build_stack", meter.wrap)
    gc.collect()
    gc.freeze()
    rng = random.Random(args.seed)

    def next_order():
        order = list(order_cells)
        rng.shuffle(order)
        return order

    if args.trace:
        result = traced(args, next_order(), meter, expected)
    else:
        result = untraced(args, next_order, meter, expected)
    inst.uninstall()
    print(json.dumps(result))
    return 0


def untraced(args, next_order, meter, expected) -> dict:
    rounds: List[Round] = []
    failed: List[str] = []
    start = perf_counter()
    with calib.Calibration() as cal:
        while len(rounds) < MIN_ROUNDS or perf_counter() - start < args.seconds:
            rnd = run_round(next_order(), meter, cal)
            failed += check_round(args.workload, rnd, expected)
            rounds.append(rnd)
    metrics, diagnostics = end_to_end(rounds, cal)
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"# {name:12s} {value:12.4f} {units[name]}")
    attempted = sum(len(r.records) for r in rounds)
    print(f"# cells {attempted} cells_failed {len(failed)}")
    print("# diagnostics " + json.dumps(diagnostics))
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END},
    }


def traced(args, order, meter, expected) -> dict:
    import layers

    start = perf_counter()
    untraced_rnd = run_round(order, meter)
    untraced_wall = perf_counter() - start
    failed = check_round(args.workload, untraced_rnd, expected)
    probe = layers.LayerProbe()
    probe.install()
    try:
        with probe.sampler:
            start = perf_counter()
            rnd = run_round(order, meter, tracer=probe.tracer)
            traced_wall = perf_counter() - start
    finally:
        probe.uninstall()
    failed += check_round(args.workload, rnd, expected)
    tracer = probe.tracer
    if tracer.nesting_errors or tracer.open_spans:
        failed.append("trace-nesting")
    fleet = [p for i, p in rnd.payloads.items() if i.startswith("fleet/")]
    values = probe.metrics(fleet, traced_wall, untraced_wall)
    if values["trace.fold_error"] > layers.FOLD_TOLERANCE:
        failed.append("trace-fold")
    if values["trace.unattributed_share"] > layers.UNATTRIBUTED_TOLERANCE:
        failed.append("trace-unattributed")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.csv.gz")
    kept = tracer.write(path)
    print(f"# spans: {kept} kept, {tracer.dropped} dropped -> {path}")
    fold = tracer.fold_by_layer()
    total = sum(fold.values())
    print(f"# {'layer':24s} {'self_s':>9s} {'share':>6s}")
    for layer, s in sorted(fold.items(), key=lambda kv: -kv[1]):
        print(f"# {layer:24s} {s:9.3f} {s / total:6.1%}")
    print(f"# folded {total:.3f} s vs traced wall {traced_wall:.3f} s "
          f"(tolerance {layers.FOLD_TOLERANCE:.0%}); untraced wall {untraced_wall:.3f} s")
    print(f"# unattributed (hostbench + other) "
          f"{values['trace.unattributed_share']:.1%} of traced wall "
          f"(tolerance {layers.UNATTRIBUTED_TOLERANCE:.0%})")
    sampler = probe.sampler
    print(f"# sampled: {sampler.samples} samples in repro code, "
          f"{values['trace.misattributed_share']:.1%} under a span of another layer")
    for (span, code), n in sampler.mismatches()[:8]:
        print(f"#   span {span:22s} code {code:22s} {n / sampler.samples:6.1%}")
    units = dict(layers.PER_LAYER)
    attempted = len(untraced_rnd.records) + len(rnd.records)
    print(f"# cells {attempted} cells_failed {len(failed)}")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name, _unit in layers.PER_LAYER},
    }


if __name__ == "__main__":
    sys.exit(main())
