"""Run scenarios and digest the outcome — the one engine behind
``scenarios run``, ``faults plan``, ``faults fuzz`` and ``repro audit``'s
spec families.

One scenario -> one JSON-friendly result dict with the invariant
violations found and a sha256 state digest.  Results are pure functions
of the spec bytes: running the same spec twice — serial or under
``--jobs``, fast-forward on or off — produces byte-identical dicts,
which is what the replay tests pin.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence

from repro.audit import Auditor, check_invariants
from repro.bench.parallel import map_cells
from repro.cluster import Cluster, PlacementError
from repro.core.migration import MigrationError, MigrationNotSupported
from repro.faults.injector import build_faulted_stack
from repro.faults.plan import FaultPlan
from repro.faults.workload import run_fault_workload
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "run_machine",
    "run_scenario",
    "run_scenarios",
    "scenario_cell",
    "state_digest",
]


def state_digest(stack, injector=None) -> str:
    """A stable digest of the run's observable outcome: final clock,
    every counter, and what was injected.  Two runs are *the same run*
    iff their digests match."""
    snapshot = stack.metrics.snapshot()
    payload = {
        "now": stack.sim.now,
        "metrics": {
            table: {str(k): v for k, v in sorted(counters.items(), key=lambda kv: str(kv[0]))}
            for table, counters in snapshot.items()
        },
        "injected": dict(sorted(injector.summary().items())) if injector else {},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_machine(spec: ScenarioSpec, audit: bool = False):
    """Run one machine-topology spec: build the faulted stack, drive the
    op soup, check the invariants, digest.  Returns ``(result, stack,
    injector)`` so a caller can render the run it just checked."""
    plan = spec.fault_plan() or FaultPlan.empty()
    stack, injector = build_faulted_stack(
        spec.stack_config(), plan, seed=spec.seed
    )
    auditor = Auditor().attach_stack(stack) if audit else None
    outcome = "ok"
    ops: Dict[str, int] = {}
    try:
        ops = run_fault_workload(
            stack,
            ops_per_worker=spec.ops_per_worker,
            seed=spec.seed,
            workers=spec.workers,
        )
    except RuntimeError as exc:
        outcome = f"stranded: {exc}"
    except Exception as exc:  # noqa: BLE001 — a crash IS the finding
        outcome = f"crash: {type(exc).__name__}: {exc}"
    violations = check_invariants(stack)
    if auditor is not None:
        violations.extend(str(v) for v in auditor.finish().violations)
    result = {
        "outcome": outcome,
        "violations": violations,
        "digest": state_digest(stack, injector),
        "ops": ops,
        "injected": dict(injector.summary()),
        "recoveries": dict(stack.metrics.recoveries),
    }
    return result, stack, injector


def _run_cluster(spec: ScenarioSpec, audit: bool) -> Dict:
    cluster = Cluster(
        num_hosts=spec.hosts,
        seed=spec.seed,
        policy=spec.policy,
        guest_hv=spec.guest_hv,
        arch=spec.arch,
        stack_levels=spec.levels,
        workers=spec.workers,
        fault_plan=spec.fault_plan(),
    )
    auditor = cluster.enable_audit() if audit else None
    outcome = "ok"
    violations: List[str] = []
    try:
        for tenant in spec.tenant_specs():
            cluster.place(tenant)
        cluster.stream("host1", f"host{spec.hosts - 1}", 8 << 20)
        try:
            cluster.orchestrator.evacuate("host0")
        except (MigrationError, MigrationNotSupported):
            pass  # recorded in the trace; the digest reports what happened
        cluster.sim.run()
    except PlacementError as exc:
        outcome = f"unplaceable: {exc}"
    except Exception as exc:  # noqa: BLE001 — a crash IS the finding
        outcome = f"crash: {type(exc).__name__}: {exc}"
    if auditor is not None:
        violations.extend(str(v) for v in auditor.finish().violations)
    return {
        "outcome": outcome,
        "violations": violations,
        "digest": cluster.digest(),
    }


def run_scenario(spec: ScenarioSpec, audit: bool = False) -> Dict:
    """Build, drive and check ONE scenario; returns a JSON-friendly
    result keyed by the spec's canonical digest."""
    if spec.topology == "cluster":
        result = _run_cluster(spec, audit)
    else:
        result = run_machine(spec, audit)[0]
    return {
        "seed": spec.seed,
        "desc": spec.desc,
        "topology": spec.topology,
        "spec_digest": spec.digest(),
        **result,
    }


def scenario_cell(task) -> Dict:
    """One sweep cell: ``(spec_json, audit)`` -> result dict.  Pure
    function of its arguments; lives at module level so it pickles under
    the spawn start method (see :mod:`repro.bench.parallel`)."""
    spec_json, audit = task
    return run_scenario(ScenarioSpec.from_json(spec_json), audit=audit)


def run_scenarios(
    specs: Sequence[ScenarioSpec],
    jobs: Optional[int] = None,
    audit: bool = False,
) -> List[Dict]:
    """Run a batch of scenarios, optionally fanned out over worker
    processes.  Output order (and bytes) never depends on ``jobs``."""
    tasks = [(spec.to_json(), audit) for spec in specs]
    results = map_cells(scenario_cell, tasks, jobs)
    for index, result in enumerate(results):
        result["index"] = index
    return results
