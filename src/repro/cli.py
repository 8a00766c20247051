"""Command-line interface: reproduce any of the paper's experiments.

Usage (after ``pip install -e .``)::

    python -m repro table3
    python -m repro figure 7
    python -m repro figure 8 --apps memcached netperf_rr
    python -m repro migration
    python -m repro micro ProgramTimer --levels 2 --dvh full
    python -m repro trace ProgramTimer --levels 3 --chains
    python -m repro app memcached --levels 2 --io vp --dvh full --report
    python -m repro faults fuzz --episodes 500 --seed 1
    python -m repro faults plan --levels 2 --io vp --dvh full
    python -m repro audit --episodes 500
    python -m repro cluster migrate --io vp --audit
    python -m repro study --json

Every subcommand uniformly accepts ``--seed``, ``--no-fast-forward``,
``--audit``, ``--jobs``, and ``--json`` (``--seed`` and
``--no-fast-forward`` also work before the subcommand name): the same
seed reproduces the same run bit for bit, with or without fast-forward
and at any jobs count.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.features import DvhFeatures
from repro.faults.plan import FaultClass
from repro.hv.stack import StackConfig, build_stack
from repro.workloads.apps import app_names, run_app
from repro.workloads.microbench import MICROBENCHMARKS, run_microbenchmark

__all__ = ["main", "build_parser"]

DVH_PRESETS = {
    "none": DvhFeatures.none,
    "vp": DvhFeatures.vp_only,
    "full": DvhFeatures.full,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "DVH (ASPLOS 2020) reproduction: regenerate the paper's tables "
            "and figures, or run individual workloads on any configuration."
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="global simulation seed (same seed, same run, bit for bit)",
    )
    parser.add_argument(
        "--no-fast-forward",
        action="store_true",
        help="disable steady-state epoch skipping and micro-step every "
        "event (simulated results are byte-identical either way; this "
        "only trades wall time for an exhaustive event trace)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_args(p):
        """The uniform flag set every subcommand accepts: --seed,
        --no-fast-forward, --audit, --jobs, --json.  SUPPRESS defaults
        keep a pre-subcommand `--seed N` / `--no-fast-forward` from
        being clobbered when the flag follows the subcommand name.
        Subcommands without parallel cells, auditing, or a JSON shape
        simply ignore the unused flags."""
        p.add_argument(
            "--seed", type=int, default=argparse.SUPPRESS, help="simulation seed"
        )
        p.add_argument(
            "--no-fast-forward",
            action="store_true",
            default=argparse.SUPPRESS,
            help="micro-step every event (no epoch skipping)",
        )
        p.add_argument(
            "--audit",
            action="store_true",
            help="arm the runtime invariant auditor (exit 1 on violations)",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for independent cells (0 = one per CPU)",
        )
        p.add_argument(
            "--json", action="store_true", help="print machine-readable JSON"
        )

    t3 = sub.add_parser("table3", help="Table 3: microbenchmark cycles")
    add_common_args(t3)

    fig = sub.add_parser("figure", help="Figures 7/8/9/10: application overheads")
    fig.add_argument("number", choices=["7", "8", "9", "10"])
    fig.add_argument("--apps", nargs="*", choices=app_names(), default=None)
    fig.add_argument("--scale", type=float, default=None, help="txn-count scale")
    fig.add_argument(
        "--chart", action="store_true", help="render as an ASCII bar chart"
    )
    add_common_args(fig)

    mig = sub.add_parser("migration", help="the Section 4 migration experiment")
    add_common_args(mig)

    def add_stack_args(p):
        p.add_argument("--levels", type=int, default=2, choices=[0, 1, 2, 3, 4, 5])
        p.add_argument(
            "--io", default=None, choices=["native", "virtio", "passthrough", "vp"]
        )
        p.add_argument("--dvh", default="none", choices=sorted(DVH_PRESETS))
        p.add_argument("--guest-hv", default="kvm", choices=["kvm", "xen", "hs"])
        p.add_argument(
            "--arch",
            default="x86",
            choices=["x86", "arm", "riscv"],
            help="platform cost profile (riscv implies the hs guest "
            "hypervisor with hedeleg/hideleg trap delegation)",
        )

    def add_slo_arg(p):
        p.add_argument(
            "--slo",
            action="store_true",
            help="capture per-request latency histograms (zero-cost when "
            "off) and print the percentile table",
        )

    micro = sub.add_parser("micro", help="one Table 1 microbenchmark")
    micro.add_argument("name", choices=sorted(MICROBENCHMARKS))
    micro.add_argument("--iterations", type=int, default=30)
    add_stack_args(micro)
    add_slo_arg(micro)
    add_common_args(micro)

    trace = sub.add_parser(
        "trace",
        help="span-level exit-chain tracing: where every cycle of the "
        "trap path goes, per chain",
    )
    trace.add_argument(
        "name",
        nargs="?",
        default="ProgramTimer",
        choices=sorted(MICROBENCHMARKS),
        help="microbenchmark to trace (default: ProgramTimer)",
    )
    trace.add_argument("--iterations", type=int, default=3)
    trace.add_argument(
        "--chains",
        type=int,
        nargs="?",
        const=4,
        default=None,
        metavar="N",
        help="render the span trees of the last N exit chains (default 4)",
    )
    trace.add_argument(
        "--sites",
        type=int,
        default=12,
        help="show the top N (level, reason, handler) sites by cycles",
    )
    add_stack_args(trace)
    add_common_args(trace)

    analyze = sub.add_parser(
        "analyze", help="exit breakdown: why a workload is slow per config"
    )
    analyze.add_argument("name", choices=app_names())
    analyze.add_argument("--scale", type=float, default=0.25)
    add_common_args(analyze)

    app = sub.add_parser("app", help="one Table 2 application benchmark")
    app.add_argument("name", choices=app_names())
    app.add_argument("--scale", type=float, default=0.4)
    app.add_argument(
        "--report", action="store_true", help="print the exit/cycle report"
    )
    app.add_argument(
        "--arrival",
        default="closed",
        choices=["closed", "poisson"],
        help="client arrival process for request/response apps: closed "
        "loop (default) or open-loop Poisson at --offered tps",
    )
    app.add_argument(
        "--offered",
        type=float,
        default=0.0,
        metavar="TPS",
        help="offered transactions/second for --arrival poisson",
    )
    add_stack_args(app)
    add_slo_arg(app)
    add_common_args(app)

    faults = sub.add_parser(
        "faults", help="fault injection: run a plan or a fuzz campaign"
    )
    fsub = faults.add_subparsers(dest="mode", required=True)

    fuzz = fsub.add_parser(
        "fuzz", help="trap-chain fuzz campaign with per-episode invariants"
    )
    fuzz.add_argument("--episodes", type=int, default=500)
    fuzz.add_argument(
        "--levels", type=int, nargs="*", default=[0, 1, 2, 3], choices=[0, 1, 2, 3]
    )
    fuzz.add_argument("--intensity", type=float, default=0.08)
    fuzz.add_argument("--ops", type=int, default=20, help="ops per worker vCPU")
    fuzz.add_argument(
        "--replay-every",
        type=int,
        default=10,
        help="replay every Nth episode and require a byte-identical digest",
    )
    fuzz.add_argument(
        "--verbose", action="store_true", help="print failing episodes' plans"
    )
    add_common_args(fuzz)

    plan = fsub.add_parser(
        "plan", help="one seed-derived fault plan against one stack"
    )
    plan.add_argument(
        "--classes",
        nargs="*",
        choices=sorted(FaultClass.ALL),
        default=None,
        help="fault classes to draw from (default: all non-migration classes)",
    )
    plan.add_argument("--intensity", type=float, default=0.05)
    plan.add_argument("--ops", type=int, default=30, help="ops per worker vCPU")
    plan.add_argument(
        "--report", action="store_true", help="print the full exit/cycle report"
    )
    add_stack_args(plan)
    add_common_args(plan)

    cluster = sub.add_parser(
        "cluster",
        help="multi-host datacenter: placement, cross-host DVH migration",
    )
    csub = cluster.add_subparsers(dest="mode", required=True)

    def add_cluster_args(p, hosts_default=4):
        p.add_argument("--hosts", type=int, default=hosts_default)
        p.add_argument(
            "--policy",
            default="bin-pack",
            choices=["bin-pack", "spread", "load-balance"],
        )
        p.add_argument("--guest-hv", default="kvm", choices=["kvm", "xen", "hs"])
        p.add_argument(
            "--arch", default="x86", choices=["x86", "arm", "riscv"],
            help="platform cost profile for every host in the cluster",
        )
        p.add_argument(
            "--faults",
            nargs="*",
            choices=sorted(FaultClass.FABRIC),
            default=None,
            help="fabric fault classes to draw a seed-derived plan from",
        )
        add_common_args(p)

    cdemo = csub.add_parser(
        "demo", help="boot a cluster, place a fleet, evacuate a host"
    )
    cdemo.add_argument("--tenants", type=int, default=6)
    add_slo_arg(cdemo)
    add_cluster_args(cdemo)

    cmig = csub.add_parser(
        "migrate", help="one cross-host live migration (vp migrates, "
        "passthrough refuses)"
    )
    cmig.add_argument(
        "--io", default="vp", choices=["virtio", "vp", "passthrough"]
    )
    cmig.add_argument(
        "--downtime-limit-ms",
        type=float,
        default=500.0,
        help="abort if projected downtime exceeds this",
    )
    add_cluster_args(cmig, hosts_default=2)

    csweep = csub.add_parser(
        "sweep", help="sweep placement policies across cluster sizes"
    )
    csweep.add_argument("--tenants", type=int, default=6)
    add_common_args(csweep)

    dc = sub.add_parser(
        "dc",
        help="spine-leaf datacenter: declarative specs, live control "
        "plane, rolling upgrade waves (repro.dc)",
    )
    dsub = dc.add_subparsers(dest="mode", required=True)

    def add_dc_args(p, with_spec=True):
        if with_spec:
            p.add_argument(
                "--spec",
                default="small",
                help="built-in spec name (small, fleet, slo) or a path to "
                "a JSON / YAML-subset spec file",
            )
        p.add_argument(
            "--no-quiescent",
            action="store_true",
            help="boot every host's stack eagerly instead of on first "
            "touch (byte-identical trace; only wall time changes)",
        )
        p.add_argument(
            "--slo",
            action="store_true",
            help="force-enable latency telemetry and the SLO gate even "
            "when the spec's slo: block is absent or disabled",
        )
        add_common_args(p)

    ddemo = dsub.add_parser(
        "demo",
        help="run the built-in small fleet: admissions, rebalancing, "
        "a full rolling-upgrade wave, pinned-host report",
    )
    add_dc_args(ddemo, with_spec=False)

    drun = dsub.add_parser("run", help="run a datacenter spec to completion")
    add_dc_args(drun)

    dsweep = dsub.add_parser(
        "sweep", help="run one spec across a range of seeds"
    )
    dsweep.add_argument(
        "--seeds", type=int, default=4, help="number of seeds (0..N-1)"
    )
    add_dc_args(dsweep)

    dval = dsub.add_parser(
        "validate", help="parse and validate a spec file, print its shape"
    )
    dval.add_argument("--spec", default="small", help="spec name or path")
    add_common_args(dval)

    slo = sub.add_parser(
        "slo",
        help="the tail-latency headline study: noisy neighbours, "
        "SLO-gated live migration, fabric degradation, and the "
        "virtio/vp/passthrough percentile table (repro.dc 'slo' spec)",
    )
    slo.add_argument(
        "--spec",
        default="slo",
        help="spec name or path (default: the built-in 'slo' study)",
    )
    slo.add_argument(
        "--trace", action="store_true", help="print the full event trace"
    )
    add_common_args(slo)

    study = sub.add_parser(
        "study",
        help="head-to-head: baseline vs DVH vs OoH vs DVH+OoH across "
        "micro-ops, apps, and live migration (repro.study)",
    )
    study.add_argument(
        "--spec",
        default=None,
        help="path to a JSON study-matrix spec (default: the built-in "
        "full matrix; see examples/study_matrix.json)",
    )
    add_common_args(study)

    audit = sub.add_parser(
        "audit",
        help="runtime invariant audit: drive the migration/cluster fault "
        "matrix and a fuzz campaign with every auditor check armed",
    )
    audit.add_argument(
        "--episodes",
        type=int,
        default=500,
        help="fuzz-campaign episodes (0 skips the fuzz leg)",
    )
    audit.add_argument(
        "--verbose", action="store_true", help="print per-scenario detail"
    )
    add_common_args(audit)

    scenarios = sub.add_parser(
        "scenarios",
        help="constrained-random scenarios: generate, run, or shrink "
        "(one seeded generator behind the fuzzer, audit and sweeps)",
    )
    scsub = scenarios.add_subparsers(dest="mode", required=True)

    def add_scenario_args(p):
        p.add_argument(
            "--count", type=int, default=10, help="scenarios to generate"
        )
        p.add_argument(
            "--arch",
            nargs="*",
            choices=["x86", "arm", "riscv"],
            default=None,
            help="restrict the architecture pool (default: all three)",
        )
        add_common_args(p)

    gen = scsub.add_parser(
        "gen",
        help="print canonical scenario specs, one JSON line each "
        "(same seed => byte-identical bytes)",
    )
    add_scenario_args(gen)

    run_p = scsub.add_parser(
        "run", help="generate AND run scenarios, checking invariants"
    )
    add_scenario_args(run_p)

    shrink = scsub.add_parser(
        "shrink", help="greedily minimize one failing scenario"
    )
    shrink.add_argument(
        "--index", type=int, default=0, help="scenario index within the seed"
    )
    add_scenario_args(shrink)

    return parser


def _stack_config(args) -> StackConfig:
    io = args.io
    if io is None:
        if args.levels == 0:
            io = "native"
        elif DVH_PRESETS[args.dvh]().virtual_passthrough and args.levels >= 2:
            io = "vp"
        else:
            io = "virtio"
    return StackConfig(
        levels=args.levels,
        io_model=io,
        dvh=DVH_PRESETS[args.dvh](),
        guest_hv=args.guest_hv,
        seed=args.seed,
        arch=getattr(args, "arch", "x86"),
    )


def _make_auditor(args):
    """An armed :class:`repro.audit.Auditor` when ``--audit`` was given,
    else None (the un-audited run stays byte-identical)."""
    if not getattr(args, "audit", False):
        return None
    from repro.audit import Auditor

    return Auditor()


def _finish_audit(auditor) -> int:
    """Render an armed auditor's report; non-zero on violations."""
    if auditor is None:
        return 0
    report = auditor.finish()
    print()
    print(report.render())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if getattr(args, "no_fast_forward", False):
        # Threaded like --seed: the env var is read at Simulator
        # construction (and inherited by --jobs worker subprocesses),
        # so every stack built below micro-steps.
        import os

        os.environ["REPRO_FAST_FORWARD"] = "0"

    if args.command == "table3":
        from repro.bench import format_table3, run_table3

        print(format_table3(run_table3(jobs=args.jobs, seed=args.seed)))
        return 0

    if args.command == "figure":
        from repro.bench import format_figure, run_figure

        scales = None
        if args.scale is not None:
            scales = {lvl: args.scale for lvl in range(6)}
        result = run_figure(
            args.number,
            apps=args.apps,
            scales=scales,
            jobs=args.jobs,
            seed=args.seed,
        )
        if args.chart:
            from repro.bench.plot import ascii_figure

            print(ascii_figure(result))
        else:
            print(format_figure(result))
        return 0

    if args.command == "migration":
        from repro.bench import format_migration, run_migration_experiment

        auditor = _make_auditor(args)
        print(format_migration(run_migration_experiment(seed=args.seed, audit=auditor)))
        return _finish_audit(auditor)

    if args.command == "micro":
        stack = build_stack(_stack_config(args))
        auditor = _make_auditor(args)
        if auditor is not None:
            auditor.attach_stack(stack)
        if args.slo:
            stack.machine.enable_request_capture(series=args.name)
        cycles = run_microbenchmark(stack, args.name, args.iterations)
        print(
            f"{args.name} (levels={args.levels}, dvh={args.dvh}): "
            f"{cycles:,.0f} cycles/op"
        )
        if args.slo:
            from repro.metrics.report import latency_report

            print()
            print(latency_report(stack.metrics, stack.machine.freq_hz))
        return _finish_audit(auditor)

    if args.command == "trace":
        return _run_trace(args)

    if args.command == "analyze":
        from repro.bench.analysis import exit_breakdown, format_breakdown

        rows = exit_breakdown(args.name, scale=args.scale, seed=args.seed)
        print(format_breakdown(rows, app=args.name))
        return 0

    if args.command == "faults":
        return _run_faults(args)

    if args.command == "cluster":
        return _run_cluster(args)

    if args.command == "dc":
        return _run_dc(args)

    if args.command == "slo":
        return _run_slo(args)

    if args.command == "study":
        return _run_study(args)

    if args.command == "scenarios":
        return _run_scenarios(args)

    if args.command == "audit":
        from repro.audit.runner import render_audit, run_audit

        run = run_audit(seed=args.seed, episodes=args.episodes)
        print(render_audit(run, verbose=args.verbose))
        return 0 if run.ok else 1

    if args.command == "app":
        stack = build_stack(_stack_config(args))
        auditor = _make_auditor(args)
        if auditor is not None:
            auditor.attach_stack(stack)
        if args.slo:
            stack.machine.enable_request_capture(series=args.name)
        try:
            result = run_app(
                stack,
                args.name,
                scale=args.scale,
                arrival=args.arrival,
                offered_tps=args.offered,
            )
        except ValueError as exc:
            print(f"error: {exc}")
            return 1
        arrival = f", arrival={args.arrival}" if args.arrival != "closed" else ""
        print(
            f"{args.name} (levels={args.levels}, io={stack.config.io_model}, "
            f"dvh={args.dvh}{arrival}): {result.value:,.1f} {result.unit} "
            f"over {result.txns} transactions in {result.elapsed_s * 1000:.2f} ms"
        )
        if args.slo and not args.report:
            from repro.metrics.report import latency_report

            print()
            print(latency_report(stack.metrics, stack.machine.freq_hz))
        if args.report:
            from repro.metrics.report import full_report

            print()
            print(full_report(stack.metrics, stack.machine.freq_hz, sim=stack.sim))
        return _finish_audit(auditor)

    return 2  # pragma: no cover - argparse enforces the choices


def _run_trace(args) -> int:
    """The ``trace`` subcommand: run a microbenchmark with span tracing
    on and show where the trap path's cycles went."""
    stack = build_stack(_stack_config(args))
    collector = stack.machine.enable_span_tracing()
    cycles = run_microbenchmark(stack, args.name, args.iterations)
    chains = len(collector.roots) + collector.chains_evicted
    print(
        f"{args.name} (levels={args.levels}, io={stack.config.io_model}, "
        f"dvh={args.dvh}, guest_hv={args.guest_hv}): {cycles:,.0f} cycles/op"
    )
    print(
        f"{collector.spans_closed} spans closed over {chains} exit chains "
        f"({collector.spans_opened - collector.spans_closed} still open at drain)"
    )

    print()
    print("cycle reconciliation (span-attributed vs Metrics):")
    print(f"  {'category':<14} {'spans':>14} {'metrics':>14} {'unattributed':>14}")
    for category, span_cy, metric_cy, rest in collector.reconcile(stack.metrics):
        print(
            f"  {category:<14} {span_cy:>14,.0f} {metric_cy:>14,.0f} {rest:>14,.0f}"
        )

    rows = collector.site_rows()
    if rows:
        print()
        print(f"top dispatch sites (of {len(rows)}):")
        for level, reason, handler, site_cycles in rows[: args.sites]:
            print(f"  L{level} {reason:<18} -> {handler:<10} {site_cycles:>14,.0f}")

    if args.chains:
        print()
        print(collector.render_chains(last=args.chains))
    return 0


def _run_faults(args) -> int:
    """The ``faults`` subcommand: fuzz campaigns and single plan runs,
    both machine scenario specs run by :mod:`repro.scenarios.runner`."""
    import json

    from repro.faults import render_campaign, render_plan_run
    from repro.scenarios import (
        MACHINE_FAULT_CLASSES,
        ScenarioSpec,
        fuzz_specs,
        run_machine,
        run_scenario,
        run_scenarios,
    )

    if args.mode == "fuzz":
        specs = fuzz_specs(
            seed=args.seed,
            count=args.episodes,
            levels_pool=tuple(args.levels),
            ops_per_worker=args.ops,
            intensity=args.intensity,
        )
        results = run_scenarios(specs, jobs=args.jobs, audit=args.audit)
        # Every Nth episode runs again in this process; its digest must
        # match the campaign run's byte for byte.
        replayed = results[:: args.replay_every] if args.replay_every else []
        for result in replayed:
            replay = run_scenario(specs[result["index"]], audit=args.audit)
            result["replayed"] = True
            if replay["digest"] != result["digest"]:
                result["violations"].append(
                    f"replay divergence: {result['digest'][:16]} != "
                    f"{replay['digest'][:16]}"
                )
        if args.json:
            print(json.dumps(results, indent=2, sort_keys=True))
        else:
            print(render_campaign(args.seed, specs, results, verbose=args.verbose))
        ok = all(r["outcome"] == "ok" and not r["violations"] for r in results)
        return 0 if ok else 1

    # mode == "plan": one seed-derived plan against one configured stack.
    config = _stack_config(args)
    spec = ScenarioSpec(
        seed=args.seed,
        topology="machine",
        arch=config.arch,
        guest_hv=config.guest_hv,
        levels=config.levels,
        io_model=config.io_model,
        dvh=args.dvh,
        workers=config.workers,
        ops_per_worker=args.ops,
        fault_classes=tuple(args.classes or MACHINE_FAULT_CLASSES),
        fault_seed=args.seed,
        intensity=args.intensity,
    )
    result, stack, injector = run_machine(spec, audit=args.audit)
    print(render_plan_run(stack, injector, ops=result["ops"]))
    if args.report:
        from repro.metrics.report import full_report

        print()
        print(full_report(stack.metrics, stack.machine.freq_hz, sim=stack.sim))
    violations = result["violations"]
    if result["outcome"] != "ok":
        violations = [result["outcome"]] + violations
    if violations:
        print()
        print(f"INVARIANT VIOLATIONS ({len(violations)}):")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    return 0


def _run_scenarios(args) -> int:
    """The ``scenarios`` subcommand: gen, run, shrink."""
    import json

    from repro.scenarios import generate_specs, run_scenarios, shrink_scenario

    arches = tuple(args.arch) if args.arch else ("x86", "arm", "riscv")
    specs = generate_specs(seed=args.seed, count=args.count, arches=arches)

    if args.mode == "gen":
        # Streams one spec per line; a downstream `head` closing the
        # pipe early is a normal way to consume it, not an error.
        try:
            for spec in specs:
                print(spec.to_json())
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        return 0

    if args.mode == "run":
        results = run_scenarios(specs, jobs=args.jobs, audit=args.audit)
        if args.json:
            print(json.dumps(results, indent=2, sort_keys=True))
        else:
            width = max(len(r["desc"]) for r in results) + 2
            for r in results:
                status = (
                    "ok"
                    if r["outcome"] == "ok" and not r["violations"]
                    else f"{r['outcome']} ({len(r['violations'])} violation(s))"
                )
                print(
                    f"  [{r['index']:>3}] {r['desc']:<{width}} {status}  "
                    f"digest={r['digest'][:12]}"
                )
        bad = [r for r in results if r["outcome"] != "ok" or r["violations"]]
        if bad and not args.json:
            for r in bad:
                for violation in r["violations"]:
                    print(f"      - [{r['index']}] {violation}")
        return 1 if bad else 0

    # mode == "shrink": minimize one failing scenario from this campaign.
    spec = specs[args.index]
    try:
        minimal, steps = shrink_scenario(spec)
    except ValueError as exc:
        print(f"scenario {args.index} ({spec.desc}): {exc}")
        return 0
    print(f"shrunk {spec.desc} in {len(steps)} step(s):")
    for step in steps:
        print(f"  - {step}")
    print(minimal.to_json())
    return 0


def _cluster_fault_plan(args):
    from repro.faults import FaultPlan

    if not getattr(args, "faults", None):
        return None
    return FaultPlan.random(args.seed, classes=args.faults, max_classes=2)


def _print_percentiles(table, freq_hz: Optional[int] = None) -> None:
    """Render a tenant percentile table (see
    repro.cluster.telemetry.percentile_table) sorted worst-p99 first."""
    if not table:
        print("tenant percentiles: (no latency samples)")
        return
    with_slo = any("objective_cycles" in row for row in table.values())
    header = (
        f"{'tenant':<8} {'io':<12} {'samples':>7} {'mean cy':>10} "
        f"{'p50 cy':>10} {'p99 cy':>10} {'p99.9 cy':>10}"
    )
    if with_slo:
        header += f" {'objective':>10} {'viol':>6}"
    if freq_hz:
        header += f" {'p99':>10}"
    print("tenant percentiles (worst p99 first):")
    print(header)
    rows = sorted(
        table.items(), key=lambda kv: (-kv[1]["p99_cycles"], kv[0])
    )
    for name, row in rows:
        line = (
            f"{name:<8} {row['io_model'] or '-':<12} {row['samples']:>7} "
            f"{row['mean_cycles']:>10,} {row['p50_cycles']:>10,} "
            f"{row['p99_cycles']:>10,} {row['p999_cycles']:>10,}"
        )
        if with_slo:
            obj = row.get("objective_cycles")
            line += (
                f" {obj:>10,} {row.get('violations', 0):>6}"
                if obj
                else f" {'-':>10} {'-':>6}"
            )
        if freq_hz:
            line += f" {row['p99_cycles'] / freq_hz * 1e6:>7.1f} us"
        print(line)


def _run_cluster(args) -> int:
    """The ``cluster`` subcommand: demo, single migration, policy sweep."""
    import json

    if args.mode == "sweep":
        from repro.cluster.sweep import run_sweep

        rows = run_sweep(seed=args.seed, num_tenants=args.tenants, jobs=args.jobs)
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
            return 0
        print(
            f"{'policy':<14} {'hosts':>5} {'per-host':>12} {'max load':>9} "
            f"{'mig bytes':>12} {'downtime':>10}"
        )
        for row in rows:
            mig = row["migration"]
            downtime = f"{mig['downtime_ms']:.3f} ms" if mig else "-"
            print(
                f"{row['policy']:<14} {row['hosts']:>5} "
                f"{str(row['tenants_per_host']):>12} {row['max_load']:>9} "
                f"{row['fabric_migration_bytes']:>12,} {downtime:>10}"
            )
        return 0

    if args.mode == "demo":
        from repro.cluster.sweep import run_demo

        summary = run_demo(
            seed=args.seed,
            num_hosts=args.hosts,
            num_tenants=args.tenants,
            policy=args.policy,
            guest_hv=args.guest_hv,
            arch=args.arch,
            fault_plan=_cluster_fault_plan(args),
            audit=args.audit,
            slo=args.slo,
        )
        audit = summary.get("audit")
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 1 if audit and not audit["ok"] else 0
        print(
            f"cluster demo: {args.hosts} hosts, {args.tenants} tenants, "
            f"policy={args.policy}, seed={args.seed}"
        )
        for line in summary["trace"]:
            print(f"  {line}")
        fabric = summary["fabric"]
        print(
            f"fabric: {fabric['frames']} frames, "
            f"{fabric['migration_bytes']:,} migration bytes, "
            f"{fabric['net_bytes']:,} net bytes, "
            f"{fabric['undeliverable']} undeliverable"
        )
        moved = [m for m in summary["migrations"] if m["outcome"] == "ok"]
        stuck = [m for m in summary["migrations"] if m["outcome"] != "ok"]
        print(
            f"migrations: {len(moved)} ok, {len(stuck)} refused/failed "
            f"(digest {summary['digest'][:16]})"
        )
        if args.slo:
            print()
            _print_percentiles(summary.get("tenant_percentiles", {}))
        if audit is not None:
            print(
                f"audit: {audit['checks_run']} checks, "
                f"{len(audit['violations'])} violation(s)"
            )
            for violation in audit["violations"]:
                print(f"  VIOLATION {violation}")
            return 0 if audit["ok"] else 1
        return 0

    # mode == "migrate": one cross-host migration, asymmetry on display.
    from repro.cluster import Cluster, TenantSpec
    from repro.core.migration import MigrationError, MigrationNotSupported

    cluster = Cluster(
        num_hosts=max(2, args.hosts),
        seed=args.seed,
        policy=args.policy,
        guest_hv=args.guest_hv,
        arch=args.arch,
        fault_plan=_cluster_fault_plan(args),
    )
    auditor = cluster.enable_audit() if args.audit else None
    cluster.place(TenantSpec(name="tenant0", io_model=args.io, memory_gb=8))
    src = cluster.host_of("tenant0")
    dst = [h for h in cluster.hosts if h.name != src.name][0]
    failure = None
    try:
        record = cluster.migrate(
            "tenant0", dst.name, downtime_limit_s=args.downtime_limit_ms / 1e3
        )
    except MigrationNotSupported as exc:
        failure = f"migration refused (hardware-coupled): {exc}"
    except MigrationError as exc:
        failure = f"migration failed: {exc}"
    if args.json:
        # The refused or failed record is in the summary's migrations.
        summary = cluster.summary()
        audit_ok = True
        if auditor is not None:
            summary["audit"] = auditor.finish().as_dict()
            audit_ok = summary["audit"]["ok"]
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if audit_ok and not failure else 1
    if failure:
        print(failure)
        _finish_audit(auditor)
        return 1
    result = record.result
    print(
        f"migrated tenant0 ({args.io}) {src.name} -> {dst.name}: "
        f"downtime {result.downtime_s * 1e3:.3f} ms, "
        f"{result.rounds} pre-copy rounds, "
        f"{result.bytes_transferred:,} bytes over the fabric, "
        f"{result.retries} retries, {record.attempts} attempt(s)"
    )
    print(
        f"fabric migration bytes: "
        f"{cluster.fabric.metrics.cross_host_bytes('migration'):,}"
    )
    return _finish_audit(auditor)


def _run_dc(args) -> int:
    """The ``dc`` subcommand: spec-driven fleets under a control plane."""
    import json

    from repro.dc import load_spec, run_dc, run_sweep
    from repro.dc.spec import SpecError

    try:
        spec = load_spec(getattr(args, "spec", "small"))
    except (SpecError, FileNotFoundError) as exc:
        print(f"spec error: {exc}")
        return 1

    if args.mode == "validate":
        print(spec.describe())
        return 0

    if getattr(args, "slo", False) and not spec.slo.enabled:
        # Force-enable latency telemetry and the gate with the spec's
        # slo: block values (or SloSpec defaults when absent).  Same
        # deterministic path as a spec that says enabled: true.
        from dataclasses import replace as _replace

        spec = _replace(spec, slo=_replace(spec.slo, enabled=True))

    quiescent = not args.no_quiescent

    if args.mode == "sweep":
        rows = run_sweep(
            getattr(args, "spec", "small"),
            seeds=range(args.seeds),
            jobs=args.jobs,
            quiescent=quiescent,
        )
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
            return 0
        print(
            f"{'seed':>4} {'events':>7} {'admitted':>8} {'moves':>6} "
            f"{'pinned/wave':>14} {'digest':>18}"
        )
        for row in rows:
            print(
                f"{row['seed']:>4} {row['events']:>7} {row['admitted']:>8} "
                f"{row['rebalance_moves']:>6} "
                f"{str(row['pinned_per_wave']):>14} {row['digest'][:16]:>18}"
            )
        return 0

    # mode in ("demo", "run"): one fleet, full control-plane lifecycle.
    dc = run_dc(spec, seed=args.seed, quiescent=quiescent)
    summary = dc.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    topo = spec.topology
    print(
        f"dc {spec.name}: {topo.racks} racks x {topo.hosts_per_rack} hosts, "
        f"{topo.spines} spines, {topo.oversubscription:g}:1 oversub, "
        f"policy={spec.control.policy}, seed={args.seed}"
    )
    for line in dc.events:
        print(f"  {line}")
    control = summary.get("control")
    if control:
        print(
            f"control: {control['admitted']} admitted, "
            f"{len(control['rejected'])} rejected, "
            f"{control['rebalance_moves']} rebalance moves, "
            f"{control['upgraded_total']} hosts upgraded, "
            f"pinned per wave {control['pinned_per_wave']}"
        )
        slo = control.get("slo")
        if slo:
            print(
                f"slo gate: {slo['ticks']} ticks, {slo['samples']} samples, "
                f"{slo['breaches']} breaches, {slo['migrations']} migrations"
            )
    fabric = summary["fabric"]
    print(
        f"fabric: {fabric['frames']} frames, "
        f"{fabric['migration_bytes']:,} migration bytes, "
        f"{fabric['net_bytes']:,} net bytes, "
        f"{fabric.get('trunk_bytes', 0):,} trunk bytes"
    )
    print(
        f"hosts: {summary['hosts_booted']}/{summary['hosts_total']} booted "
        f"({summary['boots']} boots) "
        f"(digest {summary['digest'][:16]})"
    )
    if summary.get("tenant_percentiles"):
        print()
        _print_percentiles(summary["tenant_percentiles"], freq_hz=dc.sim.freq_hz)
    return 0


def _run_study(args) -> int:
    """The ``study`` subcommand: the 4-way head-to-head matrix."""
    import json

    from repro.study import StudySpec, render_study, run_study

    try:
        spec = StudySpec.from_file(args.spec) if args.spec else StudySpec()
    except (ValueError, OSError) as exc:
        print(f"spec error: {exc}")
        return 1
    result = run_study(spec, seed=args.seed, jobs=args.jobs)
    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
        return 0
    print(render_study(result))
    return 0


def _run_slo(args) -> int:
    """The ``slo`` subcommand: the tail-latency headline study.

    Runs the built-in ``slo`` datacenter spec (or any spec given via
    ``--spec``, with telemetry force-enabled) and renders the story the
    per-run aggregates could not tell: per-tenant percentile tables,
    SLO-gate decisions (migrate / pinned / no-target), and the
    brownout/degradation windows in the event trace."""
    import json
    from collections import Counter
    from dataclasses import replace as _replace

    from repro.dc import load_spec, run_dc
    from repro.dc.spec import SpecError

    try:
        spec = load_spec(args.spec)
    except (SpecError, FileNotFoundError) as exc:
        print(f"spec error: {exc}")
        return 1
    if not spec.slo.enabled:
        spec = _replace(spec, slo=_replace(spec.slo, enabled=True))

    dc = run_dc(spec, seed=args.seed)
    summary = dc.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    cfg = spec.slo
    print(
        f"slo study: spec={spec.name} seed={args.seed} "
        f"sample={cfg.sample_ms:g}ms gate every {cfg.gate_interval_ms:g}ms "
        f"from {cfg.gate_start_ms:g}ms, default p99 objective "
        f"{cfg.objective_p99_ms:g}ms"
    )
    if args.trace:
        for line in dc.events:
            print(f"  {line}")
    control = summary["control"]
    slo = control["slo"]
    print(
        f"slo gate: {slo['ticks']} telemetry ticks, {slo['samples']} samples, "
        f"{slo['breaches']} breaches, {slo['migrations']} gate migrations"
    )
    actions = Counter(
        (r["io_model"], r["action"]) for r in slo["reports"]
    )
    for (io_model, action), n in sorted(actions.items()):
        print(f"  {io_model:<12} {action:<10} x{n}")
    print()
    _print_percentiles(summary["tenant_percentiles"], freq_hz=dc.sim.freq_hz)
    print()
    print(f"digest {summary['digest'][:16]} (byte-identical per seed)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
