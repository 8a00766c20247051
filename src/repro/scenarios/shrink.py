"""Deterministic greedy scenario minimization.

Given a failing scenario, repeatedly try the smallest structural
reductions — fewer ops, fewer grants, fewer fault classes, a shallower
stack, fewer tenants, fewer hosts — keeping a reduction only if the
scenario STILL fails the predicate.  Candidates are tried in a fixed
order and the predicate is a pure function of the spec, so shrinking is
as replayable as the scenarios themselves: the same failing spec always
shrinks to the same minimal spec via the same steps.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional, Tuple

from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec

__all__ = ["default_fails", "shrink_candidates", "shrink_scenario"]


def default_fails(spec: ScenarioSpec) -> bool:
    """The standard predicate: the scenario crashes, strands a worker,
    or trips an invariant."""
    result = run_scenario(spec)
    return result["outcome"] != "ok" or bool(result["violations"])


def _valid(spec: ScenarioSpec) -> bool:
    try:
        spec.validate()
    except (ValueError, KeyError):
        return False
    return True


def shrink_candidates(spec: ScenarioSpec) -> List[Tuple[str, ScenarioSpec]]:
    """Every one-step reduction of ``spec`` that is still a valid
    scenario, in the fixed order shrinking tries them."""
    candidates: List[Tuple[str, ScenarioSpec]] = []

    def add(step: str, **changes) -> None:
        candidate = replace(spec, **changes)
        if _valid(candidate):
            candidates.append((step, candidate))

    for i, kind in enumerate(spec.fault_classes):
        remaining = spec.fault_classes[:i] + spec.fault_classes[i + 1 :]
        add(f"drop fault class {kind}", fault_classes=remaining)
    if spec.topology == "machine":
        if spec.ops_per_worker > 1:
            add(
                f"halve ops to {spec.ops_per_worker // 2}",
                ops_per_worker=max(1, spec.ops_per_worker // 2),
            )
        for i, grant in enumerate(spec.grants):
            remaining = spec.grants[:i] + spec.grants[i + 1 :]
            add(f"drop grant {grant}", grants=remaining)
        if spec.dvh == "full":
            add("reduce dvh full -> vp", dvh="vp")
        if spec.dvh != "none":
            add("reduce dvh -> none", dvh="none")
        if spec.levels > 0:
            add(f"reduce levels to {spec.levels - 1}", levels=spec.levels - 1)
        if spec.workers > 1:
            add("reduce workers to 1", workers=1)
    else:
        for i in range(len(spec.tenants) - 1, -1, -1):
            remaining = spec.tenants[:i] + spec.tenants[i + 1 :]
            add(f"drop tenant {spec.tenants[i].name}", tenants=remaining)
        if spec.hosts > 2:
            add(f"reduce hosts to {spec.hosts - 1}", hosts=spec.hosts - 1)
    return candidates


def shrink_scenario(
    spec: ScenarioSpec,
    fails: Optional[Callable[[ScenarioSpec], bool]] = None,
    max_rounds: int = 64,
) -> Tuple[ScenarioSpec, List[str]]:
    """Greedy minimization: returns ``(minimal_spec, steps_taken)``.

    ``fails`` must return True for the original spec (ValueError
    otherwise) — shrinking a green scenario is meaningless.
    """
    predicate = fails if fails is not None else default_fails
    if not predicate(spec):
        raise ValueError("scenario does not fail; nothing to shrink")
    steps: List[str] = []
    for _ in range(max_rounds):
        for step, candidate in shrink_candidates(spec):
            if predicate(candidate):
                spec = candidate
                steps.append(step)
                break
        else:
            break  # no single reduction still fails: minimal
    return spec, steps
