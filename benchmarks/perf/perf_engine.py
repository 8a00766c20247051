"""Engine throughput benchmark: simulator events per host second.

Two synthetic workloads bracket the engine's behavior:

* **ping-pong** — pairs of processes waking each other through events,
  the zero-delay resume traffic that dominates the exit-handler chains
  (exercises the ready deque);
* **delay chain** — one process sleeping in a tight loop with nothing
  else scheduled (exercises the inline clock-advance fast path).

A third case, **exit path**, measures the trap path above the engine:
simulated VM exits per host second for the L3 Hypercall microbenchmark,
where one hypercall multiplies into 332 exits.  A fourth, **dirty
write**, measures the memory layer under pre-copy dirty logging:
``MemorySpace.write_range`` calls and drained dirty pages per host
second with one dirty log attached.  A fifth, **fleet place**, measures
tenant admission in a large fleet: placement-index choices plus
admissions per host second on a 200-host lazily booted fleet.  A sixth, **migration dirtier**,
runs the study's migration cells (a live migration beside a tenant
re-dirtying memory) and reports simulated dirtier bursts per host
second, the rate the dirtier's run-ahead sets.  A seventh, **fabric
frames**, runs stop-and-wait cross-rack flows on a small spine-leaf
fabric and reports delivered frames per host second.  An eighth,
**stack build**, builds a fleet host's system stack (an L2 virtio
stack) over and over and reports stacks built per host second.

Run directly to print and optionally record results::

    PYTHONPATH=src python benchmarks/perf/perf_engine.py --out BENCH_engine.json
    PYTHONPATH=src python benchmarks/perf/perf_engine.py --check

``--check`` enforces conservative events/sec, exits/sec, writes/sec,
drained pages/sec, placements/sec, bursts/sec, frames/sec and
stacks/sec floors (for CI smoke).  With ``--baseline
BENCH_engine.json`` each floor is raised to the recorded throughput
divided by ``--max-slowdown``, so a real engine or trap-path regression
trips even on hosts fast enough to clear the absolute floor.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Dict, Optional

from repro.sim.engine import Simulator

#: Conservative floor for CI hosts of unknown speed; the engine manages
#: well over 10x this on 2020s-era hardware.
MIN_EVENTS_PER_SEC = 100_000.0

#: Conservative floor for the exit path, again about 10x under what a
#: 2020s-era core sustains.
MIN_EXITS_PER_SEC = 10_000.0

#: Conservative floor for dirty-logged writes, about 10x under what a
#: 2020s-era core sustains.
MIN_DIRTY_WRITES_PER_SEC = 100_000.0

#: Conservative floor for pages drained from the dirty log, per host
#: second of the same case: about 10x under the 1.5M a 2-core x86-64
#: sandbox sustains.
MIN_DIRTY_PAGES_DRAINED_PER_SEC = 150_000.0

#: Conservative floor for fleet placements, about 10x under what a
#: 2020s-era core sustains (host boots included).
MIN_PLACEMENTS_PER_SEC = 300.0

#: Conservative floor for migration-dirtier bursts: about 10x under
#: what the run-ahead sustains on a 2020s-era core, and above the
#: roughly 430k/s the same cells reach stepped burst by burst.
MIN_DIRTIER_BURSTS_PER_SEC = 1_000_000.0

#: Conservative floor for fabric frames, about 10x under what a
#: 2020s-era core sustains.
MIN_FABRIC_FRAMES_PER_SEC = 7_000.0

#: Conservative floor for fleet-host stack builds, about 10x under what
#: a 2020s-era core sustains.
MIN_STACKS_PER_SEC = 200.0


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
    sim.ff.attach(metrics)

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


def bench_dirty_write(
    writes: int = 200_000, window: int = 64, span: int = 1_024, drain_every: int = 1_024
) -> Dict[str, float]:
    """Host cost of a dirty-logged write: a ``window``-page write
    sliding over ``span`` pages (the study migration's dirtier), with
    one dirty log attached and drained every ``drain_every`` writes, as
    a pre-copy round would.  ``pages_drained`` is the sum of the
    drained page counts."""
    from time import perf_counter

    from repro.hw.mem import PAGE_SIZE, DirtyLog, MemorySpace

    space = MemorySpace(span * PAGE_SIZE)
    log = DirtyLog()
    space.attach_dirty_log(log)
    drained = 0
    t0 = perf_counter()
    for i in range(writes):
        space.write_range(((i * window) % span) * PAGE_SIZE, window * PAGE_SIZE)
        if (i + 1) % drain_every == 0:
            drained += len(log.drain())
    wall = perf_counter() - t0
    return {
        "writes": float(writes),
        "pages_drained": float(drained),
        "wall_s": wall,
        "writes_per_host_s": writes / wall if wall > 0 else 0.0,
        "pages_drained_per_host_s": drained / wall if wall > 0 else 0.0,
    }


def bench_fleet_place(tenants: int = 240, hosts: int = 200) -> Dict[str, float]:
    """Host cost of admitting a tenant into a large fleet: ``tenants``
    placed by the bin-pack policy onto ``hosts`` lazily booted hosts
    (the ``fleet`` spec's shape: its io-model mix, 1-2 GB, 800-2,400
    load), each then admitted on the host chosen.  Every choice walks
    the fleet's placement index best first and stops at the first host
    that fits; a host boots on its first tenant.  ``hosts_booted``
    counts the boots inside the timing."""
    from time import perf_counter

    from repro.cluster.host import ClusterHost, TenantSpec
    from repro.cluster.placement import BinPackPolicy, PlacementIndex
    from repro.sim import default_costs

    sim = Simulator(seed=0)
    costs = default_costs()
    fleet = [ClusterHost(f"host{i}", sim, costs, lazy=True) for i in range(hosts)]
    io_models = ("virtio", "vp", "virtio", "passthrough", "vp", "virtio")
    specs = [
        TenantSpec(
            name=f"t{i}",
            io_model=io_models[i % len(io_models)],
            memory_gb=1 + i % 2,
            load=800 + (i * 160) % 1_601,
        )
        for i in range(tenants)
    ]
    index = PlacementIndex(BinPackPolicy(), fleet)
    t0 = perf_counter()
    for spec in specs:
        index.choose(spec).admit(spec)
    wall = perf_counter() - t0
    return {
        "tenants": float(tenants),
        "hosts": float(hosts),
        "hosts_booted": float(sum(h.boots for h in fleet)),
        "wall_s": wall,
        "placements_per_host_s": tenants / wall if wall > 0 else 0.0,
    }


def bench_migration_dirtier(repeats: int = 10) -> Dict[str, float]:
    """Host cost of the study's migration cells: each variant's live
    migration with the tenant dirtier running beside it, ``repeats``
    times.  The dirtier bursts until the migration ends, so the
    simulated bursts are the migration's cycles over one burst's
    compute (rounded up)."""
    from math import ceil
    from time import perf_counter

    from repro.sim.engine import DEFAULT_FREQ_HZ
    from repro.study import harness

    variants = ("baseline", "dvh", "ooh", "dvh+ooh")
    bursts = 0
    t0 = perf_counter()
    for _ in range(repeats):
        for variant in variants:
            row = harness._migration_cell(variant, 0)
            bursts += ceil(row["total_s"] * DEFAULT_FREQ_HZ / harness._DIRTIER_COMPUTE)
    wall = perf_counter() - t0
    return {
        "cells": float(repeats * len(variants)),
        "bursts": float(bursts),
        "wall_s": wall,
        "bursts_per_host_s": bursts / wall if wall > 0 else 0.0,
    }


def bench_fabric_frames(
    frames: int = 2_000, hosts_per_rack: int = 2
) -> Dict[str, float]:
    """Host cost of the fleet fabric's data path: every host of rack 0
    runs a stop-and-wait flow of ``frames`` 64 KiB frames to its peer in
    rack 1 of a 2-rack, 2-spine fabric, and each peer runs one back, so
    every frame crosses both trunks and the flows contend for them.
    Reports delivered frames per host second."""
    from time import perf_counter

    from repro.dc import SpineLeafFabric
    from repro.sim import default_costs

    sim = Simulator(seed=0)
    fabric = SpineLeafFabric(
        sim, default_costs(), racks=2, hosts_per_rack=hosts_per_rack, spines=2
    )
    for rack in range(2):
        for h in range(hosts_per_rack):
            fabric.attach(f"r{rack}h{h}", rack=rack)

    def flow(src: str, dst: str):
        for _ in range(frames):
            yield from fabric.transfer(src, dst, 64 << 10, "migration")

    for h in range(hosts_per_rack):
        sim.spawn(flow(f"r0h{h}", f"r1h{h}"))
        sim.spawn(flow(f"r1h{h}", f"r0h{h}"))
    t0 = perf_counter()
    sim.run()
    wall = perf_counter() - t0
    delivered = fabric.stats()["frames"]
    return {
        "frames": float(delivered),
        "events": float(sim.stats()["events_executed"]),
        "wall_s": wall,
        "frames_per_host_s": delivered / wall if wall > 0 else 0.0,
    }


def bench_stack_build(stacks: int = 200) -> Dict[str, float]:
    """Host cost of booting a fleet host: ``stacks`` builds of the fleet
    spec's host stack (L2, virtio I/O, 2 workers), each on a fresh
    machine, as ``ClusterHost.boot`` makes it.  Only ``build_stack`` is
    timed.  ``rx_buffers`` sums the buffers posted on the leaf driver's
    RX rings, so a build that skipped its rings shows there."""
    from time import perf_counter

    from repro.hv.stack import IO_VIRTIO, StackConfig, build_stack
    from repro.hw.machine import Machine
    from repro.sim import default_costs

    costs = default_costs()
    wall = 0.0
    rx_buffers = 0
    for i in range(stacks):
        machine = Machine(sim=Simulator(seed=0), costs=costs)
        config = StackConfig(
            levels=2, io_model=IO_VIRTIO, workers=2, flow=f"host{i}-sys"
        )
        t0 = perf_counter()
        stack = build_stack(config, machine=machine)
        wall += perf_counter() - t0
        dev = stack.net.device
        rx_buffers += sum(
            dev.rx_q(p).avail_pending for p in range(dev.num_queue_pairs)
        )
    return {
        "stacks": float(stacks),
        "rx_buffers": float(rx_buffers),
        "wall_s": wall,
        "stacks_per_host_s": stacks / wall if wall > 0 else 0.0,
    }


def measure() -> Dict[str, Dict[str, float]]:
    """Run every case once; the result is what ``--out`` records and
    what :func:`check` judges."""
    return {
        "ping_pong": bench_ping_pong(),
        "delay_chain": bench_delay_chain(),
        "periodic_phase": bench_periodic_phase(),
        "request_capture": bench_request_capture(),
        "exit_path": bench_exit_path(),
        "dirty_write": bench_dirty_write(),
        "fleet_place": bench_fleet_place(),
        "migration_dirtier": bench_migration_dirtier(),
        "fabric_frames": bench_fabric_frames(),
        "stack_build": bench_stack_build(),
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
        help=f"fail unless ping-pong sustains {MIN_EVENTS_PER_SEC:,.0f} events/s, "
        f"the exit path {MIN_EXITS_PER_SEC:,.0f} exits/s, dirty writes "
        f"{MIN_DIRTY_WRITES_PER_SEC:,.0f} writes/s and "
        f"{MIN_DIRTY_PAGES_DRAINED_PER_SEC:,.0f} drained pages/s, fleet placement "
        f"{MIN_PLACEMENTS_PER_SEC:,.0f} placements/s, the migration "
        f"dirtier {MIN_DIRTIER_BURSTS_PER_SEC:,.0f} bursts/s, fabric "
        f"frames {MIN_FABRIC_FRAMES_PER_SEC:,.0f} frames/s and stack "
        f"builds {MIN_STACKS_PER_SEC:,.0f} stacks/s",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="JSON",
        help="with --check: also require ping-pong, exit-path, dirty-write, "
        "fleet-place, migration-dirtier, fabric-frame and stack-build "
        "throughput within "
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

    results = measure()
    report(results)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.check:
        baseline = None
        if args.baseline:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        return check(results, baseline, args.max_slowdown)
    return 0


def report(results: Dict[str, Dict[str, float]]) -> None:
    """Print one line per case."""
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
    dw = results["dirty_write"]
    print(
        f"{'dirty_write':14s} {dw['writes']:>10,.0f} writes "
        f"({dw['pages_drained']:,.0f} pages drained) "
        f"in {dw['wall_s']:.3f}s = "
        f"{dw['writes_per_host_s']:>12,.0f} writes/s, "
        f"{dw['pages_drained_per_host_s']:,.0f} pages/s drained"
    )
    fp = results["fleet_place"]
    print(
        f"{'fleet_place':14s} {fp['tenants']:>10,.0f} tenants "
        f"({fp['hosts']:,.0f} hosts, {fp['hosts_booted']:,.0f} booted) "
        f"in {fp['wall_s']:.3f}s = "
        f"{fp['placements_per_host_s']:>12,.0f} placements/s"
    )
    md = results["migration_dirtier"]
    print(
        f"{'mig_dirtier':14s} {md['bursts']:>10,.0f} bursts "
        f"({md['cells']:,.0f} migration cells) "
        f"in {md['wall_s']:.3f}s = "
        f"{md['bursts_per_host_s']:>12,.0f} bursts/s"
    )
    ff = results["fabric_frames"]
    print(
        f"{'fabric_frames':14s} {ff['frames']:>10,.0f} frames "
        f"({ff['events']:,.0f} events) "
        f"in {ff['wall_s']:.3f}s = "
        f"{ff['frames_per_host_s']:>12,.0f} frames/s"
    )
    sb = results["stack_build"]
    print(
        f"{'stack_build':14s} {sb['stacks']:>10,.0f} stacks "
        f"({sb['rx_buffers']:,.0f} RX buffers posted) "
        f"in {sb['wall_s']:.3f}s = "
        f"{sb['stacks_per_host_s']:>12,.0f} stacks/s"
    )


def check(
    results: Dict[str, Dict[str, float]],
    baseline: Optional[Dict[str, Dict[str, float]]] = None,
    max_slowdown: float = 8.0,
) -> int:
    """0 if ``results`` clear every invariant and floor, else 1 (the
    failure printed to stderr).  With ``baseline``, each floor is
    raised to the recorded throughput divided by ``max_slowdown``."""
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
    floors = (
        ("ping_pong", "last_run_events_per_sec", MIN_EVENTS_PER_SEC, "events/s"),
        ("exit_path", "exits_per_host_s", MIN_EXITS_PER_SEC, "exits/s"),
        ("dirty_write", "writes_per_host_s", MIN_DIRTY_WRITES_PER_SEC, "writes/s"),
        (
            "dirty_write",
            "pages_drained_per_host_s",
            MIN_DIRTY_PAGES_DRAINED_PER_SEC,
            "pages/s",
        ),
        (
            "fleet_place",
            "placements_per_host_s",
            MIN_PLACEMENTS_PER_SEC,
            "placements/s",
        ),
        (
            "migration_dirtier",
            "bursts_per_host_s",
            MIN_DIRTIER_BURSTS_PER_SEC,
            "bursts/s",
        ),
        (
            "fabric_frames",
            "frames_per_host_s",
            MIN_FABRIC_FRAMES_PER_SEC,
            "frames/s",
        ),
        ("stack_build", "stacks_per_host_s", MIN_STACKS_PER_SEC, "stacks/s"),
    )
    for name, key, floor, unit in floors:
        rate = results[name][key]
        if baseline is not None:
            base_rate = baseline[name][key]
            floor = max(floor, base_rate / max_slowdown)
            print(
                f"{name} baseline {base_rate:,.0f} {unit} "
                f"/ {max_slowdown:g} = floor {floor:,.0f}"
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
