"""Rendering for fault-injection runs and fuzz campaigns."""

from __future__ import annotations

from collections import Counter
from typing import List

from repro.metrics.report import _table, fault_report

__all__ = ["render_plan_run", "render_campaign"]


def render_plan_run(stack, injector, ops=None) -> str:
    """Report for one plan run: the plan, what fired, what recovered."""
    parts: List[str] = [
        f"Fault plan (seed {injector.seed}):",
        injector.plan.describe(),
        "",
    ]
    if ops:
        rows = [[name, str(n)] for name, n in sorted(ops.items())]
        parts += ["Workload ops", _table(["op", "count"], rows), ""]
    parts.append(fault_report(stack.metrics))
    metrics = stack.metrics
    parts += [
        "",
        (
            f"{metrics.total_faults():,} faults injected, "
            f"{metrics.total_recoveries():,} recoveries, "
            f"{metrics.total_exits():,} hardware exits, "
            f"sim clock {stack.sim.now:,} cycles"
        ),
    ]
    return "\n".join(parts)


def _totals(results, key: str) -> Counter:
    totals: Counter = Counter()
    for result in results:
        totals.update(result[key])
    return totals


def render_campaign(seed: int, specs, results, verbose: bool = False) -> str:
    """Report for a fuzz campaign — machine specs and their run results
    (see :func:`repro.scenarios.run_scenarios`): per-class totals, then
    every failing episode with the canonical spec line that replays (and
    shrinks) it."""
    replayed = sum(1 for r in results if r.get("replayed"))
    parts: List[str] = [
        f"Fuzz campaign: seed {seed}, {len(results)} episodes, "
        f"{replayed} replay-verified",
        "",
    ]
    for title, key in (("Injected faults", "injected"), ("Recoveries", "recoveries")):
        rows = [
            [kind, str(n)] for kind, n in sorted(_totals(results, key).items())
        ] or [["(none)", "0"]]
        parts += [title, _table(["class", "count"], rows), ""]

    failures = [
        (spec, r)
        for spec, r in zip(specs, results)
        if r["outcome"] != "ok" or r["violations"]
    ]
    if not failures:
        parts.append("All invariants green.")
        return "\n".join(parts)
    parts.append(f"FAILURES ({len(failures)}):")
    for spec, result in failures:
        parts.append(
            f"  episode {result['index']} (seed {spec.seed}, {spec.desc}):"
        )
        if result["outcome"] != "ok":
            parts.append(f"    - {result['outcome']}")
        for violation in result["violations"]:
            parts.append(f"    - {violation}")
        parts.append(f"    spec: {spec.to_json()}")
        if verbose:
            for line in spec.fault_plan().describe().splitlines():
                parts.append(f"    plan: {line}")
    return "\n".join(parts)
