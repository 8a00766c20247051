"""Engine throughput benchmark: simulator events per host second.

Two synthetic workloads bracket the engine's behavior:

* **ping-pong** — pairs of processes waking each other through events,
  the zero-delay resume traffic that dominates the exit-handler chains
  (exercises the ready deque);
* **delay chain** — one process sleeping in a tight loop with nothing
  else scheduled (exercises the inline clock-advance fast path).

A third case, **exit path**, measures the trap path above the engine:
simulated VM exits per host second for the L3 Hypercall microbenchmark,
where one hypercall multiplies into 332 exits.

Run directly to print and optionally record results::

    PYTHONPATH=src python benchmarks/perf/perf_engine.py --out BENCH_engine.json
    PYTHONPATH=src python benchmarks/perf/perf_engine.py --check

``--check`` enforces conservative events/sec and exits/sec floors (for
CI smoke).  With ``--baseline BENCH_engine.json`` each floor is raised
to the recorded throughput divided by ``--max-slowdown``, so a real
engine or trap-path regression trips even on hosts fast enough to clear
the absolute floor.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Dict

from repro.sim.engine import Simulator

#: Conservative floor for CI hosts of unknown speed; the engine manages
#: well over 10x this on 2020s-era hardware.
MIN_EVENTS_PER_SEC = 100_000.0

#: Conservative floor for the exit path, again about 10x under what a
#: 2020s-era core sustains.
MIN_EXITS_PER_SEC = 10_000.0


def bench_ping_pong(pairs: int = 4, rounds: int = 20_000) -> Dict[str, float]:
    """Event-driven ping-pong: ``pairs`` process pairs, each exchanging
    ``rounds`` wakeups through one-shot events (the ready-deque path)."""
    sim = Simulator()
    for _p in range(pairs):
        ping_ev = [sim.event()]
        pong_ev = [sim.event()]

        def ping(ping_ev=ping_ev, pong_ev=pong_ev):
            for _ in range(rounds):
                pong_ev[0].trigger()
                yield ping_ev[0]
                ping_ev[0] = sim.event()

        def pong(ping_ev=ping_ev, pong_ev=pong_ev):
            for _ in range(rounds):
                yield pong_ev[0]
                pong_ev[0] = sim.event()
                ping_ev[0].trigger()

        sim.spawn(ping(), "ping")
        sim.spawn(pong(), "pong")
    sim.run()
    return sim.stats()


def bench_delay_chain(rounds: int = 200_000) -> Dict[str, float]:
    """A single process sleeping ``rounds`` times with an empty heap —
    the uncontended inline-advance path."""
    sim = Simulator()

    def sleeper():
        for _ in range(rounds):
            yield 7

    sim.spawn(sleeper(), "sleeper")
    sim.run()
    return sim.stats()


def bench_periodic_phase(epochs: int = 200_000, period: int = 1_000) -> Dict[str, float]:
    """A strictly periodic workload phase under steady-state fast-forward:
    one process charging a fixed cycle cost then sleeping one period,
    ``epochs`` times.  The engine should detect the steady state after
    its confirmation window and collapse the rest into macro-events, so
    the interesting number is simulated epochs retired per host second —
    not events executed (which should stay tiny)."""
    from repro.metrics import Metrics

    sim = Simulator(fast_forward=True)
    metrics = Metrics()
    sim.ff.register_metrics(metrics)

    def loop():
        src = sim.ff.source("bench:periodic")
        left = epochs
        while left > 0:
            metrics.charge("guest_work", period)
            yield period
            left -= 1
            if left:
                left -= src.observe(left)

    sim.spawn(loop(), "periodic")
    sim.run()
    s = sim.stats()
    s["epochs"] = epochs
    wall = s["last_run_wall_s"]
    s["epochs_per_host_s"] = epochs / wall if wall > 0 else 0.0
    return s


def bench_request_capture(txns: int = 600) -> Dict[str, float]:
    """Zero-cost-when-off guard for per-request latency capture.

    Runs the same request/response workload with capture off (the
    default: ``machine.request_capture is None``, so every observation
    site is one attribute load and an ``is None`` test) and with
    histogram capture on.  Fast-forward is disabled so every request is
    actually simulated.  The modes run interleaved three times and the
    fastest wall time per mode wins (min-of-N discards scheduler and
    allocator noise); the check asserts the off path is not slower than
    the on path beyond noise — if capture-off ever pays for the
    feature, this trips."""
    from dataclasses import replace
    from time import perf_counter

    from repro.core.features import DvhFeatures
    from repro.hv.stack import StackConfig, build_stack
    from repro.hw.machine import Machine
    from repro.workloads.apps import NETPERF_RR
    from repro.workloads.engines import run_rr

    spec = replace(NETPERF_RR, txns=txns)

    def one(capture: bool) -> float:
        stack = build_stack(
            StackConfig(levels=2, io_model="vp", dvh=DvhFeatures.full()),
            machine=Machine(sim=Simulator(fast_forward=False)),
        )
        if capture:
            stack.machine.enable_request_capture(series="bench")
        t0 = perf_counter()
        run_rr(stack, spec)
        return perf_counter() - t0

    off = on = float("inf")
    for _ in range(3):
        off = min(off, one(False))
        on = min(on, one(True))
    return {
        "txns": float(txns),
        "off_wall_s": off,
        "on_wall_s": on,
        "off_txns_per_host_s": txns / off if off > 0 else 0.0,
        "off_over_on": off / on if on > 0 else 0.0,
    }


def bench_exit_path(iterations: int = 100) -> Dict[str, float]:
    """Host cost per simulated VM exit: the L3 Hypercall microbenchmark
    with fast-forward off, so every iteration's exits are simulated.
    The stack settles first, so its boot-time HLT exits stay out.
    ``exits`` is the sum of ``Metrics.exits`` over the run (332 per
    hypercall); a change that gets faster by simulating fewer exits
    shows up there.  ``dispatches`` counts the host's
    ``KvmHypervisor.dispatch_exit`` calls: fewer than ``exits`` where
    runs of identical L0-handled exits are applied in one step."""
    from time import perf_counter

    from repro.hv.kvm import KvmHypervisor
    from repro.hv.stack import StackConfig, build_stack
    from repro.hw.machine import Machine
    from repro.workloads.microbench import run_microbenchmark

    stack = build_stack(
        StackConfig(levels=3), machine=Machine(sim=Simulator(fast_forward=False))
    )
    stack.settle()
    exits = stack.metrics.exits
    before = sum(exits.values())
    dispatch_exit = KvmHypervisor.dispatch_exit
    dispatches = 0

    def counted(self, *args, **kwargs):
        nonlocal dispatches
        dispatches += 1
        return dispatch_exit(self, *args, **kwargs)

    KvmHypervisor.dispatch_exit = counted
    try:
        t0 = perf_counter()
        run_microbenchmark(stack, "Hypercall", iterations)
        wall = perf_counter() - t0
    finally:
        KvmHypervisor.dispatch_exit = dispatch_exit
    simulated = sum(exits.values()) - before
    return {
        "iterations": float(iterations),
        "exits": float(simulated),
        "dispatches": float(dispatches),
        "wall_s": wall,
        "exits_per_host_s": simulated / wall if wall > 0 else 0.0,
    }


def run_benchmarks() -> Dict[str, Dict[str, float]]:
    return {
        "ping_pong": bench_ping_pong(),
        "delay_chain": bench_delay_chain(),
        "periodic_phase": bench_periodic_phase(),
        "request_capture": bench_request_capture(),
        "exit_path": bench_exit_path(),
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write results to this JSON file")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"fail unless ping-pong sustains {MIN_EVENTS_PER_SEC:,.0f} events/s "
        f"and the exit path {MIN_EXITS_PER_SEC:,.0f} exits/s",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="JSON",
        help="with --check: also require ping-pong and exit-path throughput within "
        "--max-slowdown of this recorded baseline",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=8.0,
        help="allowed throughput ratio vs --baseline; generous because "
        "CI hosts differ from the recording host (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    results = run_benchmarks()
    for name in ("ping_pong", "delay_chain"):
        s = results[name]
        print(
            f"{name:14s} {s['last_run_events']:>10,.0f} events "
            f"in {s['last_run_wall_s']:.3f}s host wall = "
            f"{s['last_run_events_per_sec']:>12,.0f} events/s"
        )
    pp = results["periodic_phase"]
    print(
        f"{'periodic_phase':14s} {pp['epochs']:>10,.0f} epochs "
        f"({pp['ff_epochs_skipped']:,.0f} skipped, "
        f"{pp['last_run_events']:,.0f} events) "
        f"in {pp['last_run_wall_s']:.3f}s = "
        f"{pp['epochs_per_host_s']:>12,.0f} epochs/s"
    )
    rc = results["request_capture"]
    print(
        f"{'req_capture':14s} {rc['txns']:>10,.0f} txns "
        f"off {rc['off_wall_s']:.3f}s on {rc['on_wall_s']:.3f}s "
        f"(off/on {rc['off_over_on']:.2f}) = "
        f"{rc['off_txns_per_host_s']:>12,.0f} txns/s capture-off"
    )
    ep = results["exit_path"]
    print(
        f"{'exit_path':14s} {ep['exits']:>10,.0f} exits "
        f"({ep['iterations']:,.0f} L3 hypercalls, "
        f"{ep['dispatches']:,.0f} dispatches) "
        f"in {ep['wall_s']:.3f}s = "
        f"{ep['exits_per_host_s']:>12,.0f} exits/s"
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.check:
        # Regression assertion for the ping-pong slow path: same-time
        # wakeups must ride the inline chain, not bounce through the
        # outer scheduler (the shape that once showed inline_hits: 0).
        pp = results["ping_pong"]
        if pp["inline_hits"] <= pp["ready_hits"]:
            print(
                f"FAIL: ping-pong fell off the inline chain "
                f"(inline_hits={pp['inline_hits']:,.0f} <= "
                f"ready_hits={pp['ready_hits']:,.0f})",
                file=sys.stderr,
            )
            return 1
        # Fast-forward must collapse a strictly periodic phase: anything
        # under 99% skipped means detection or the skip window broke.
        pe = results["periodic_phase"]
        if pe["ff_epochs_skipped"] < 0.99 * pe["epochs"]:
            print(
                f"FAIL: periodic phase skipped only "
                f"{pe['ff_epochs_skipped']:,.0f} of {pe['epochs']:,.0f} epochs",
                file=sys.stderr,
            )
            return 1
        # Latency capture must be zero-cost when off: the default path
        # (request_capture is None) may not run slower than the
        # capture-on path beyond host noise.
        rc = results["request_capture"]
        if rc["off_over_on"] > 1.4:
            print(
                f"FAIL: capture-off request path "
                f"{rc['off_over_on']:.2f}x slower than capture-on "
                f"({rc['off_wall_s']:.3f}s vs {rc['on_wall_s']:.3f}s)",
                file=sys.stderr,
            )
            return 1
        baseline = None
        if args.baseline:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        floors = (
            ("ping_pong", "last_run_events_per_sec", MIN_EVENTS_PER_SEC, "events/s"),
            ("exit_path", "exits_per_host_s", MIN_EXITS_PER_SEC, "exits/s"),
        )
        for name, key, floor, unit in floors:
            rate = results[name][key]
            if baseline is not None:
                base_rate = baseline[name][key]
                floor = max(floor, base_rate / args.max_slowdown)
                print(
                    f"{name} baseline {base_rate:,.0f} {unit} "
                    f"/ {args.max_slowdown:g} = floor {floor:,.0f}"
                )
            if rate < floor:
                print(
                    f"FAIL: {name} {rate:,.0f} {unit} below floor {floor:,.0f}",
                    file=sys.stderr,
                )
                return 1
            print(f"OK: {name} above {floor:,.0f} {unit} floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
