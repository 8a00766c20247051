"""Human-readable reports over collected metrics.

These are the analysis views used throughout the paper's narrative: how
many exits an operation caused, how many reached a guest hypervisor, and
where the cycles went.  Used by the examples and handy in the REPL:

    >>> from repro.metrics.report import exit_report
    >>> print(exit_report(stack.metrics))
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.counters import Metrics

__all__ = [
    "exit_report",
    "cycle_report",
    "interrupt_report",
    "fault_report",
    "intervention_summary",
    "latency_report",
    "simulator_report",
    "full_report",
]


def _table(header: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" if i == 0 else f"{{:>{w}}}" for i, w in enumerate(widths))
    lines = [fmt.format(*header), fmt.format(*["-" * w for w in widths])]
    lines += [fmt.format(*row) for row in rows]
    return "\n".join(lines)


def exit_report(metrics: Metrics) -> str:
    """Hardware exits broken down by source level and reason, with the
    share forwarded to guest hypervisors."""
    reasons = sorted({r for (_lvl, r) in metrics.exits})
    levels = sorted({lvl for (lvl, _r) in metrics.exits})
    rows = []
    for reason in reasons:
        row = [reason]
        for lvl in levels:
            row.append(str(metrics.exits.get((lvl, reason), 0)))
        forwarded = sum(
            n for (_l, r, _o), n in metrics.forwards.items() if r == reason
        )
        row.append(str(forwarded))
        rows.append(row)
    total_row = ["TOTAL"]
    for lvl in levels:
        total_row.append(str(metrics.exits_from_level(lvl)))
    total_row.append(str(metrics.guest_hv_interventions()))
    rows.append(total_row)
    header = ["exit reason"] + [f"from L{lvl}" for lvl in levels] + ["forwarded"]
    return "Hardware exits\n" + _table(header, rows)


def cycle_report(metrics: Metrics, freq_hz: Optional[int] = None) -> str:
    """Cycle attribution by category (guest work, L0 emulation, guest
    hypervisor handlers, vhost, DVH emulation...)."""
    total = sum(metrics.cycles.values()) or 1
    rows = []
    for category, cycles in sorted(metrics.cycles.items(), key=lambda kv: -kv[1]):
        row = [category, f"{cycles:,.0f}", f"{100 * cycles / total:5.1f}%"]
        if freq_hz:
            row.append(f"{cycles / freq_hz * 1e3:8.3f} ms")
        rows.append(row)
    header = ["category", "cycles", "share"] + (["time"] if freq_hz else [])
    return "Cycle attribution\n" + _table(header, rows)


def interrupt_report(metrics: Metrics) -> str:
    """Interrupt deliveries by kind and mode (posted vs injected) — the
    Figure 8 'posted interrupts' story in numbers."""
    rows = [
        [kind, mode, str(n)]
        for (kind, mode), n in sorted(metrics.interrupts.items())
    ]
    return "Interrupt deliveries\n" + _table(["kind", "mode", "count"], rows)


def fault_report(metrics: Metrics) -> str:
    """Injected faults vs successful recoveries (see repro.faults)."""
    rows = [
        ["fault", kind, str(n)] for kind, n in sorted(metrics.faults.items())
    ] + [
        ["recovery", kind, str(n)]
        for kind, n in sorted(metrics.recoveries.items())
    ]
    if not rows:
        rows = [["-", "(none)", "0"]]
    return "Faults and recoveries\n" + _table(["type", "class", "count"], rows)


def intervention_summary(metrics: Metrics) -> Dict[str, float]:
    """The headline numbers: exits, interventions, and the DVH share."""
    total = metrics.total_exits()
    interventions = metrics.guest_hv_interventions()
    dvh = sum(metrics.dvh_handled.values())
    return {
        "hardware_exits": total,
        "guest_hv_interventions": interventions,
        "dvh_handled": dvh,
        "intervention_ratio": interventions / total if total else 0.0,
    }


def latency_report(metrics: Metrics, freq_hz: Optional[int] = None) -> str:
    """Per-series request-latency percentiles from the histogram tables
    (see :mod:`repro.metrics.hist`).  Cycles always; microseconds too
    when ``freq_hz`` is known.  Empty-table safe: only series with at
    least one observation print."""
    rows = []
    for series in metrics.latency_series():
        hist = metrics.latency_histogram(series)
        if not hist.total:
            continue
        row = [
            series,
            f"{hist.total:,}",
            f"{hist.sum // hist.total:,}",
            f"{hist.percentile(50.0):,}",
            f"{hist.percentile(99.0):,}",
            f"{hist.percentile(99.9):,}",
        ]
        if freq_hz:
            row.append(f"{hist.percentile(99.0) / freq_hz * 1e6:9.2f} us")
        rows.append(row)
    if not rows:
        return "Request latency\n(no latency observations)"
    header = ["series", "count", "mean cy", "p50 cy", "p99 cy", "p99.9 cy"]
    if freq_hz:
        header.append("p99")
    return "Request latency (histogram buckets, <=3.2% wide)\n" + _table(
        header, rows
    )


def simulator_report(sim) -> str:
    """Engine cost of the run: events executed, the ready/heap/inline
    scheduling split, host-side throughput and the work that run-ahead
    and fast-forward skipped (``Simulator.stats()``)."""
    s = sim.stats()
    # Skipped work must never be silently unobservable: the run-ahead
    # and fast-forward counters always print (all zero with it off).
    rows = [
        ["events executed", f"{s['events_executed']:,.0f}"],
        ["ready-queue hits", f"{s['ready_hits']:,.0f}"],
        ["heap hits", f"{s['heap_hits']:,.0f}"],
        ["inline advances", f"{s['inline_hits']:,.0f}"],
        ["last run events", f"{s['last_run_events']:,.0f}"],
        ["last run host wall", f"{s['last_run_wall_s'] * 1e3:,.2f} ms"],
        ["last run events/sec", f"{s['last_run_events_per_sec']:,.0f}"],
        ["exits batched", f"{s['exits_batched']:,.0f}"],
        ["dirtier bursts merged", f"{s['dirtier_bursts_merged']:,.0f}"],
        ["transit hops ahead", f"{s['transit_hops_ahead']:,.0f}"],
        ["fast-forward", "on" if s["ff_enabled"] else "off"],
        ["ff epochs observed", f"{s['ff_epochs_observed']:,.0f}"],
        ["ff detections", f"{s['ff_detections']:,.0f}"],
        ["ff epochs skipped", f"{s['ff_epochs_skipped']:,.0f}"],
        ["ff macro-events", f"{s['ff_macro_events']:,.0f}"],
        ["ff window-blocked", f"{s['ff_window_blocked']:,.0f}"],
    ]
    for cause, n in sorted(s["ff_invalidations"].items()):
        rows.append([f"ff invalidated: {cause}", f"{n:,.0f}"])
    return "Simulator cost (host-side)\n" + _table(["counter", "value"], rows)


def full_report(metrics: Metrics, freq_hz: Optional[int] = None, sim=None) -> str:
    """Everything, for dropping at the end of an experiment."""
    parts = [exit_report(metrics), "", cycle_report(metrics, freq_hz)]
    if metrics.latency:
        parts += ["", latency_report(metrics, freq_hz)]
    if metrics.interrupts:
        parts += ["", interrupt_report(metrics)]
    if metrics.faults or metrics.recoveries:
        parts += ["", fault_report(metrics)]
    if sim is not None:
        parts += ["", simulator_report(sim)]
    summary = intervention_summary(metrics)
    parts += [
        "",
        (
            f"{summary['hardware_exits']:,} exits, "
            f"{summary['guest_hv_interventions']:,} guest-hypervisor "
            f"interventions ({summary['intervention_ratio']:.1%}), "
            f"{summary['dvh_handled']:,} handled by DVH"
        ),
    ]
    return "\n".join(parts)
