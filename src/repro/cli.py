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
    python -m repro dc demo
    python -m repro dc run --spec slo
    python -m repro scenarios run --count 10
    python -m repro study --json

Each leaf parser names its runner; the runner returns an :class:`Output`
and prints nothing, and :func:`main` prints it once: ``data`` as one
JSON document under ``--json``, else ``text``.  Every leaf accepts
``--seed``, ``--no-fast-forward`` (both also before the subcommand) and
``--json``; only leaves that fan cells over processes accept ``--jobs``,
only leaves that arm the auditor accept ``--audit``, and a text-only
flag (``--chart``, ``--report``, ``--verbose``, ``--chains``) with
``--json`` is a parse error.  The same seed reproduces the same run bit
for bit, with or without fast-forward (``--no-fast-forward`` steps
every event: no epoch skipping or run-ahead) and at any jobs count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from typing import Any, List, NamedTuple, Optional

from repro.bench.configs import FIGURES
from repro.core.features import DVH_PRESETS
from repro.faults.plan import FaultClass
from repro.hv.stack import StackConfig, build_stack
from repro.workloads.apps import app_names, run_app
from repro.workloads.microbench import MICROBENCHMARKS, run_microbenchmark

__all__ = ["main", "build_parser"]


class Output(NamedTuple):
    """What a runner hands :func:`main`: ``data`` is printed as JSON
    under ``--json``, ``text`` otherwise; ``ok`` False exits 1."""

    data: Any
    text: str
    ok: bool = True


class UserError(Exception):
    """Bad user input: :func:`main` prints the message, exit status 1."""


def _int_at_least(low: int):
    """An argparse ``type``: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value: ..." message
    return parse


_POSITIVE, _NON_NEGATIVE = _int_at_least(1), _int_at_least(0)


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
        help="micro-step every event: no epoch skipping or run-ahead "
        "(simulated results are byte-identical either way; this only "
        "trades wall time for an exhaustive event trace)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(parent, name, run, help, jobs=False, audit=False):
        """A leaf whose parser names its runner, with --seed,
        --no-fast-forward, --json, and --jobs/--audit if ``run`` reads
        them.  SUPPRESS defaults keep a pre-subcommand `--seed N` from
        being clobbered.  Returns ``(parser, group)``: a text-only flag
        added to ``group`` is a parse error together with --json."""
        p = parent.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument(
            "--seed", type=int, default=argparse.SUPPRESS, help="simulation seed"
        )
        p.add_argument(
            "--no-fast-forward",
            action="store_true",
            default=argparse.SUPPRESS,
            help="micro-step every event (no epoch skipping or run-ahead)",
        )
        if audit:
            p.add_argument(
                "--audit",
                action="store_true",
                help="arm the runtime invariant auditor (exit 1 on violations)",
            )
        if jobs:
            p.add_argument(
                "--jobs",
                type=_NON_NEGATIVE,
                default=1,
                help="worker processes for independent cells (0 = one per CPU)",
            )
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--json", action="store_true", help="print machine-readable JSON"
        )
        return p, group

    leaf(sub, "table3", _run_table3, "Table 3: microbenchmark cycles", jobs=True)

    fig, text_only = leaf(
        sub, "figure", _run_figure, "Figures 7/8/9/10: application overheads",
        jobs=True,
    )
    fig.add_argument("number", choices=list(FIGURES))
    fig.add_argument("--apps", nargs="*", choices=app_names(), default=None)
    fig.add_argument("--scale", type=float, default=None, help="txn-count scale")
    text_only.add_argument(
        "--chart", action="store_true", help="render as an ASCII bar chart"
    )

    leaf(
        sub, "migration", _run_migration, "the Section 4 migration experiment",
        audit=True,
    )

    def add_stack_args(p, slo=False):
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
        if slo:
            p.add_argument(
                "--slo",
                action="store_true",
                help="capture per-request latency histograms (zero-cost "
                "when off) and report the latency percentiles",
            )

    micro, _ = leaf(
        sub, "micro", _run_micro, "one Table 1 microbenchmark", audit=True
    )
    micro.add_argument("name", choices=sorted(MICROBENCHMARKS))
    micro.add_argument("--iterations", type=_POSITIVE, default=30)
    add_stack_args(micro, slo=True)

    trace, text_only = leaf(
        sub,
        "trace",
        _run_trace,
        "span-level exit-chain tracing: where every cycle of the trap path "
        "goes, per chain",
    )
    trace.add_argument(
        "name",
        nargs="?",
        default="ProgramTimer",
        choices=sorted(MICROBENCHMARKS),
        help="microbenchmark to trace (default: ProgramTimer)",
    )
    trace.add_argument("--iterations", type=_POSITIVE, default=3)
    text_only.add_argument(
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
        type=_NON_NEGATIVE,
        default=12,
        help="show the top N (level, reason, handler) sites by cycles",
    )
    add_stack_args(trace)

    analyze, _ = leaf(
        sub, "analyze", _run_analyze,
        "exit breakdown: why a workload is slow per config",
    )
    analyze.add_argument("name", choices=app_names())
    analyze.add_argument("--scale", type=float, default=0.25)

    app, text_only = leaf(
        sub, "app", _run_app, "one Table 2 application benchmark", audit=True
    )
    app.add_argument("name", choices=app_names())
    app.add_argument("--scale", type=float, default=0.4)
    text_only.add_argument(
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
    add_stack_args(app, slo=True)

    faults = sub.add_parser(
        "faults", help="fault injection: run a plan or a fuzz campaign"
    )
    fsub = faults.add_subparsers(dest="mode", required=True)

    fuzz, text_only = leaf(
        fsub, "fuzz", _run_fuzz,
        "trap-chain fuzz campaign with per-episode invariants",
        jobs=True, audit=True,
    )
    fuzz.add_argument("--episodes", type=_NON_NEGATIVE, default=500)
    fuzz.add_argument(
        "--levels", type=int, nargs="*", default=[0, 1, 2, 3], choices=[0, 1, 2, 3]
    )
    fuzz.add_argument("--intensity", type=float, default=0.08)
    fuzz.add_argument("--ops", type=int, default=20, help="ops per worker vCPU")
    fuzz.add_argument(
        "--replay-every",
        type=_NON_NEGATIVE,
        default=10,
        help="replay every Nth episode and require a byte-identical digest",
    )
    text_only.add_argument(
        "--verbose", action="store_true", help="print failing episodes' plans"
    )

    plan, text_only = leaf(
        fsub, "plan", _run_plan, "one seed-derived fault plan against one stack",
        audit=True,
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
    text_only.add_argument(
        "--report", action="store_true", help="print the full exit/cycle report"
    )
    add_stack_args(plan)

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
                "a JSON spec file",
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

    ddemo, _ = leaf(
        dsub, "demo", _run_dc,
        "run the built-in small fleet: admissions, rebalancing, a full "
        "rolling-upgrade wave, pinned-host report",
    )
    ddemo.set_defaults(spec="small")
    add_dc_args(ddemo, with_spec=False)

    add_dc_args(leaf(dsub, "run", _run_dc, "run a datacenter spec to completion")[0])

    dsweep, _ = leaf(
        dsub, "sweep", _run_dc_sweep, "run one spec across a range of seeds",
        jobs=True,
    )
    dsweep.add_argument(
        "--seeds",
        type=_POSITIVE,
        default=4,
        help="number of seeds: --seed .. --seed + N - 1",
    )
    add_dc_args(dsweep)

    dval, _ = leaf(
        dsub, "validate", _run_dc_validate,
        "parse and validate a spec file, print its shape",
    )
    dval.add_argument("--spec", default="small", help="spec name or path")

    study, _ = leaf(
        sub, "study", _run_study,
        "head-to-head: baseline vs DVH vs OoH vs DVH+OoH across micro-ops, "
        "apps, and live migration (repro.study)",
        jobs=True,
    )
    study.add_argument(
        "--spec",
        default=None,
        help="path to a JSON study-matrix spec (default: the built-in "
        "full matrix; see examples/study_matrix.json)",
    )

    audit, text_only = leaf(
        sub, "audit", _run_audit,
        "runtime invariant audit: drive the migration/cluster fault matrix "
        "and a fuzz campaign with every auditor check armed",
    )
    audit.add_argument(
        "--episodes",
        type=_NON_NEGATIVE,
        default=500,
        help="fuzz-campaign episodes (0 skips the fuzz leg)",
    )
    text_only.add_argument(
        "--verbose", action="store_true", help="print per-scenario detail"
    )

    scenarios = sub.add_parser(
        "scenarios",
        help="constrained-random scenarios: generate, run, or shrink "
        "(one seeded generator behind the fuzzer and the audit)",
    )
    scsub = scenarios.add_subparsers(dest="mode", required=True)

    def scenario_leaf(name, run, help, **common):
        p, _ = leaf(scsub, name, run, help, **common)
        p.add_argument(
            "--count", type=_POSITIVE, default=10, help="scenarios to generate"
        )
        p.add_argument(
            "--arch",
            nargs="*",
            choices=["x86", "arm", "riscv"],
            default=None,
            help="restrict the architecture pool (default: all three)",
        )
        return p

    scenario_leaf(
        "gen", _run_scenarios_gen,
        "print canonical scenario specs, one JSON line each (same seed => "
        "byte-identical bytes)",
    )
    scenario_leaf(
        "run", _run_scenarios_run,
        "generate AND run scenarios, checking invariants",
        jobs=True, audit=True,
    )
    scenario_leaf(
        "shrink", _run_scenarios_shrink, "greedily minimize one failing scenario"
    ).add_argument(
        "--index",
        type=int,
        default=0,
        help="scenario index within the seed (0 .. --count - 1)",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if getattr(args, "no_fast_forward", False):
        # Threaded like --seed: the env var is read at Simulator
        # construction (and inherited by --jobs worker subprocesses),
        # so every stack built below micro-steps.
        os.environ["REPRO_FAST_FORWARD"] = "0"

    try:
        out = args.run(args)
        text = json.dumps(out.data, indent=2, sort_keys=True) if args.json else out.text
    except UserError as exc:
        out, text = Output(None, "", ok=False), str(exc)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # A downstream reader (`| head`) closing the pipe early is a
        # normal way to consume the output, not an error.  Point stdout
        # at devnull so the interpreter's exit-time flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    return 0 if out.ok else 1


def _stack_config(args) -> StackConfig:
    dvh = DVH_PRESETS[args.dvh]()
    io = args.io
    if io is None:
        nested_vp = dvh.virtual_passthrough and args.levels >= 2
        io = "native" if args.levels == 0 else "vp" if nested_vp else "virtio"
    return StackConfig(
        levels=args.levels,
        io_model=io,
        dvh=dvh,
        guest_hv=args.guest_hv,
        seed=args.seed,
        arch=args.arch,
    )


def _stack_data(args, stack) -> dict:
    """What a single-stack leaf (micro, trace, app) ran, on what."""
    return {"name": args.name, "dvh": args.dvh, "config": asdict(stack.config)}


def _app_data(result) -> dict:
    """An ``AppResult`` without its per-transaction latency list."""
    return {k: v for k, v in asdict(result).items() if k != "latencies"}


def _audited(args, run) -> Output:
    """``run(auditor)`` with the ``--audit`` auditor, or None (then the
    run stays byte-identical).  The report is ``data["audit"]`` (None if
    unarmed), its rendering follows the text, a violation fails the run."""
    auditor = None
    if args.audit:
        from repro.audit import Auditor

        auditor = Auditor()
    out = run(auditor)
    report = auditor.finish() if auditor is not None else None
    out.data["audit"] = report.as_dict() if report is not None else None
    if report is None:
        return out
    return Output(out.data, f"{out.text}\n\n{report.render()}", out.ok and report.ok)


def _with_latency(out: Output, stack) -> Output:
    """``--slo``: the per-series latency percentiles join the data
    (``latency``) and their table follows the text."""
    from repro.cluster.telemetry import percentile_table
    from repro.metrics.report import latency_report

    io_model = stack.config.io_model
    out.data["latency"] = percentile_table(stack.metrics, lambda _series: io_model)
    table = latency_report(stack.metrics, stack.machine.freq_hz)
    return out._replace(text=f"{out.text}\n\n{table}")


def _run_table3(args) -> Output:
    from repro.bench import PAPER_TABLE3, format_table3, run_table3

    result = run_table3(jobs=args.jobs, seed=args.seed)
    return Output({**asdict(result), "paper": PAPER_TABLE3}, format_table3(result))


def _run_figure(args) -> Output:
    from repro.bench import format_figure, run_figure
    from repro.bench.plot import ascii_figure

    scales = None if args.scale is None else {lvl: args.scale for lvl in range(6)}
    result = run_figure(
        args.number, apps=args.apps, scales=scales, jobs=args.jobs, seed=args.seed
    )
    data = {
        "title": result.title,
        "configs": result.configs,
        "overheads": result.overheads,
        "native": {app: _app_data(r) for app, r in result.native.items()},
    }
    return Output(data, (ascii_figure if args.chart else format_figure)(result))


def _run_migration(args) -> Output:
    from repro.bench import format_migration, run_migration_experiment

    def run(auditor):
        rows = run_migration_experiment(seed=args.seed, audit=auditor)
        return Output({"rows": [asdict(row) for row in rows]}, format_migration(rows))

    return _audited(args, run)


def _armed_stack(args, auditor):
    """The configured stack for ``micro`` and ``app``, with ``auditor``
    attached and ``--slo`` request capture on."""
    stack = build_stack(_stack_config(args))
    if auditor is not None:
        auditor.attach_stack(stack)
    if args.slo:
        stack.machine.enable_request_capture(series=args.name)
    return stack


def _run_micro(args) -> Output:
    def run(auditor):
        stack = _armed_stack(args, auditor)
        cycles = run_microbenchmark(stack, args.name, args.iterations)
        out = Output(
            {**_stack_data(args, stack), "cycles_per_op": cycles},
            f"{args.name} (levels={args.levels}, dvh={args.dvh}): "
            f"{cycles:,.0f} cycles/op",
        )
        return _with_latency(out, stack) if args.slo else out

    return _audited(args, run)


def _run_app(args) -> Output:
    def run(auditor):
        stack = _armed_stack(args, auditor)
        try:
            result = run_app(
                stack,
                args.name,
                scale=args.scale,
                arrival=args.arrival,
                offered_tps=args.offered,
            )
        except ValueError as exc:
            raise UserError(f"error: {exc}") from None
        arrival = f", arrival={args.arrival}" if args.arrival != "closed" else ""
        text = (
            f"{args.name} (levels={args.levels}, io={stack.config.io_model}, "
            f"dvh={args.dvh}{arrival}): {result.value:,.1f} {result.unit} "
            f"over {result.txns} transactions in {result.elapsed_s * 1000:.2f} ms"
        )
        if args.report:
            from repro.metrics.report import full_report

            report = full_report(stack.metrics, stack.machine.freq_hz, sim=stack.sim)
            text = f"{text}\n\n{report}"
        data = {**_stack_data(args, stack), **_app_data(result)}
        data.update(arrival=args.arrival, offered_tps=args.offered)
        out = Output(data, text)
        return _with_latency(out, stack) if args.slo and not args.report else out

    return _audited(args, run)


def _run_analyze(args) -> Output:
    from repro.bench.analysis import exit_breakdown, format_breakdown

    rows = exit_breakdown(args.name, scale=args.scale, seed=args.seed)
    data = [asdict(row) for row in rows]
    for row in data:  # JSON keys are strings: (kind, mode) -> "kind/mode"
        per_txn = row["interrupts_per_txn"]
        row["interrupts_per_txn"] = {"/".join(k): n for k, n in per_txn.items()}
    text = format_breakdown(rows, app=args.name)
    return Output({"app": args.name, "rows": data}, text)


def _run_audit(args) -> Output:
    from repro.audit.runner import render_audit, run_audit

    run = run_audit(seed=args.seed, episodes=args.episodes)
    text = render_audit(run, verbose=args.verbose)
    return Output({**asdict(run), "ok": run.ok}, text, run.ok)


def _run_trace(args) -> Output:
    """The ``trace`` subcommand: run a microbenchmark with span tracing
    on and show where the trap path's cycles went."""
    stack = build_stack(_stack_config(args))
    collector = stack.machine.enable_span_tracing()
    cycles = run_microbenchmark(stack, args.name, args.iterations)
    chains = len(collector.roots) + collector.chains_evicted
    still_open = collector.spans_opened - collector.spans_closed
    reconcile = collector.reconcile(stack.metrics)
    sites = collector.site_rows()
    top = sites[: args.sites]
    lines = [
        f"{args.name} (levels={args.levels}, io={stack.config.io_model}, "
        f"dvh={args.dvh}, guest_hv={args.guest_hv}): {cycles:,.0f} cycles/op",
        f"{collector.spans_closed} spans closed over {chains} exit chains "
        f"({still_open} still open at drain)",
        "",
        "cycle reconciliation (span-attributed vs Metrics):",
        f"  {'category':<14} {'spans':>14} {'metrics':>14} {'unattributed':>14}",
    ]
    lines += [
        f"  {category:<14} {span_cy:>14,.0f} {metric_cy:>14,.0f} {rest:>14,.0f}"
        for category, span_cy, metric_cy, rest in reconcile
    ]
    if sites:
        lines += ["", f"top dispatch sites (of {len(sites)}):"]
        lines += [
            f"  L{level} {reason:<18} -> {handler:<10} {site_cycles:>14,.0f}"
            for level, reason, handler, site_cycles in top
        ]
    if args.chains:
        lines += ["", collector.render_chains(last=args.chains)]
    data = {
        **_stack_data(args, stack),
        "cycles_per_op": cycles,
        "spans_closed": collector.spans_closed,
        "spans_open": still_open,
        "chains": chains,
        "reconcile": {
            cat: {"spans": s, "metrics": m, "unattributed": r}
            for cat, s, m, r in reconcile
        },
        "sites": [dict(zip(("level", "reason", "handler", "cycles"), r)) for r in top],
    }
    return Output(data, "\n".join(lines))


def _run_fuzz(args) -> Output:
    """``faults fuzz``: a trap-chain fuzz campaign of machine scenario
    specs, run by :mod:`repro.scenarios.runner`."""
    from repro.faults import render_campaign
    from repro.scenarios import fuzz_specs, run_scenario, run_scenarios

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
    ok = all(r["outcome"] == "ok" and not r["violations"] for r in results)
    text = render_campaign(args.seed, specs, results, verbose=args.verbose)
    return Output(results, text, ok)


def _run_plan(args) -> Output:
    """``faults plan``: one seed-derived plan against one configured
    stack, as a machine scenario spec."""
    from repro.faults import render_plan_run
    from repro.scenarios import MACHINE_FAULT_CLASSES, ScenarioSpec, run_machine

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
    lines = [render_plan_run(stack, injector, ops=result["ops"])]
    if args.report:
        from repro.metrics.report import full_report

        lines += ["", full_report(stack.metrics, stack.machine.freq_hz, sim=stack.sim)]
    violations = result["violations"]
    if result["outcome"] != "ok":
        violations = [result["outcome"]] + violations
    if violations:
        lines += ["", f"INVARIANT VIOLATIONS ({len(violations)}):"]
        lines += [f"  - {violation}" for violation in violations]
    return Output({**result, "spec": spec.to_dict()}, "\n".join(lines), not violations)


def _scenario_specs(args):
    """The ``--count`` specs a ``scenarios`` leaf draws from ``--seed``."""
    from repro.scenarios import generate_specs

    arches = tuple(args.arch) if args.arch else ("x86", "arm", "riscv")
    return generate_specs(seed=args.seed, count=args.count, arches=arches)


def _run_scenarios_gen(args) -> Output:
    specs = _scenario_specs(args)
    return Output(
        [spec.to_dict() for spec in specs], "\n".join(s.to_json() for s in specs)
    )


def _run_scenarios_run(args) -> Output:
    from repro.scenarios import run_scenarios

    results = run_scenarios(_scenario_specs(args), jobs=args.jobs, audit=args.audit)
    width = max(len(r["desc"]) for r in results) + 2
    lines = []
    for r in results:
        status = (
            "ok"
            if r["outcome"] == "ok" and not r["violations"]
            else f"{r['outcome']} ({len(r['violations'])} violation(s))"
        )
        lines.append(
            f"  [{r['index']:>3}] {r['desc']:<{width}} {status}  "
            f"digest={r['digest'][:12]}"
        )
    bad = [r for r in results if r["outcome"] != "ok" or r["violations"]]
    lines += [f"      - [{r['index']}] {v}" for r in bad for v in r["violations"]]
    return Output(results, "\n".join(lines), not bad)


def _run_scenarios_shrink(args) -> Output:
    """Minimize one failing scenario from this campaign."""
    from repro.scenarios import shrink_scenario

    if not 0 <= args.index < args.count:
        raise UserError(f"error: --index {args.index} is outside [0, {args.count})")
    spec = _scenario_specs(args)[args.index]
    data = {"index": args.index, "desc": spec.desc}
    try:
        minimal, steps = shrink_scenario(spec)
    except ValueError as exc:
        text = f"scenario {args.index} ({spec.desc}): {exc}"
        return Output({**data, "reason": str(exc)}, text)
    lines = [f"shrunk {spec.desc} in {len(steps)} step(s):"]
    lines += [f"  - {step}" for step in steps] + [minimal.to_json()]
    data.update(steps=steps, minimal=minimal.to_dict())
    return Output(data, "\n".join(lines))


def _percentile_lines(table, freq_hz: int) -> List[str]:
    """Render a tenant percentile table (see
    repro.cluster.telemetry.percentile_table) sorted worst-p99 first."""
    if not table:
        return ["tenant percentiles: (no latency samples)"]
    with_slo = any("objective_cycles" in row for row in table.values())
    header = (
        f"{'tenant':<8} {'io':<12} {'samples':>7} {'mean cy':>10} "
        f"{'p50 cy':>10} {'p99 cy':>10} {'p99.9 cy':>10}"
    )
    if with_slo:
        header += f" {'objective':>10} {'viol':>6}"
    header += f" {'p99':>10}"
    lines = ["tenant percentiles (worst p99 first):", header]
    by_p99 = sorted(table.items(), key=lambda kv: (-kv[1]["p99_cycles"], kv[0]))
    for name, row in by_p99:
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
        line += f" {row['p99_cycles'] / freq_hz * 1e6:>7.1f} us"
        lines.append(line)
    return lines


def _load_dc_spec(args):
    """The ``--spec`` a ``dc`` leaf names, with ``--slo`` applied."""
    from repro.dc import load_spec

    try:
        spec = load_spec(args.spec)
    except (ValueError, OSError) as exc:
        raise UserError(f"spec error: {exc}") from None
    if getattr(args, "slo", False) and not spec.slo.enabled:
        # Force-enable latency telemetry and the gate with the spec's
        # slo: block values (or SloSpec defaults when absent).  Same
        # deterministic path as a spec that says enabled: true.
        spec = replace(spec, slo=replace(spec.slo, enabled=True))
    return spec


def _run_dc_validate(args) -> Output:
    spec = _load_dc_spec(args)
    return Output(asdict(spec), spec.describe())


def _run_dc_sweep(args) -> Output:
    """``dc sweep``: one spec across seeds --seed .. --seed + N - 1."""
    from repro.dc import run_sweep

    seeds = range(args.seed, args.seed + args.seeds)
    quiescent = not args.no_quiescent
    rows = run_sweep(_load_dc_spec(args), seeds, jobs=args.jobs, quiescent=quiescent)
    lines = [
        f"{'seed':>4} {'events':>7} {'admitted':>8} {'moves':>6} "
        f"{'pinned/wave':>14} {'digest':>18}"
    ]
    lines += [
        f"{row['seed']:>4} {row['events']:>7} {row['admitted']:>8} "
        f"{row['rebalance_moves']:>6} "
        f"{str(row['pinned_per_wave']):>14} {row['digest'][:16]:>18}"
        for row in rows
    ]
    return Output(rows, "\n".join(lines))


def _run_dc(args) -> Output:
    """``dc demo`` and ``dc run``: one fleet, full control-plane
    lifecycle, with the SLO gate's decisions and the tenant percentile
    table when the spec (or ``--slo``) enables telemetry."""
    from collections import Counter

    from repro.dc import run_dc

    spec = _load_dc_spec(args)
    dc = run_dc(spec, seed=args.seed, quiescent=not args.no_quiescent)
    summary = dc.summary()
    topo = spec.topology
    lines = [
        f"dc {spec.name}: {topo.racks} racks x {topo.hosts_per_rack} hosts, "
        f"{topo.spines} spines, {topo.oversubscription:g}:1 oversub, "
        f"policy={spec.control.policy}, seed={args.seed}"
    ]
    lines += [f"  {line}" for line in dc.events]
    control = summary.get("control")
    if control:
        lines.append(
            f"control: {control['admitted']} admitted, "
            f"{len(control['rejected'])} rejected, "
            f"{control['rebalance_moves']} rebalance moves, "
            f"{control['upgraded_total']} hosts upgraded, "
            f"pinned per wave {control['pinned_per_wave']}"
        )
        slo = control.get("slo")
        if slo:
            lines.append(
                f"slo gate: {slo['ticks']} ticks, {slo['samples']} samples, "
                f"{slo['breaches']} breaches, {slo['migrations']} migrations"
            )
            actions = Counter((r["io_model"], r["action"]) for r in slo["reports"])
            lines += [
                f"  {io_model:<12} {action:<10} x{n}"
                for (io_model, action), n in sorted(actions.items())
            ]
    fabric = summary["fabric"]
    lines += [
        f"fabric: {fabric['frames']} frames, "
        f"{fabric['migration_bytes']:,} migration bytes, "
        f"{fabric['net_bytes']:,} net bytes, "
        f"{fabric.get('trunk_bytes', 0):,} trunk bytes",
        f"hosts: {summary['hosts_booted']}/{summary['hosts_total']} booted "
        f"({summary['boots']} boots) (digest {summary['digest'][:16]})",
    ]
    if summary.get("tenant_percentiles"):
        lines.append("")
        lines += _percentile_lines(summary["tenant_percentiles"], dc.sim.freq_hz)
    return Output(summary, "\n".join(lines))


def _run_study(args) -> Output:
    """The ``study`` subcommand: the 4-way head-to-head matrix."""
    from repro.study import StudySpec, render_study, run_study

    try:
        spec = StudySpec.from_file(args.spec) if args.spec else StudySpec()
    except (ValueError, OSError) as exc:
        raise UserError(f"spec error: {exc}") from None
    result = run_study(spec, seed=args.seed, jobs=args.jobs)
    return Output(result.to_json(), render_study(result))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
