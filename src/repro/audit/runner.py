"""``python -m repro audit`` — drive the fault matrix under audit.

Five scenario families, every one with an :class:`~repro.audit.Auditor`
attached (and therefore every lifecycle/conservation invariant armed):

1. **Single-machine migration matrix** — clean wire plus each
   migration-wire fault class, across the key stacks, including the
   non-convergence abort path (hard downtime limit + a firehose
   dirtier), which must raise :class:`MigrationError` *and* leave zero
   leaked state behind;
2. **Cluster failure matrix** — cross-host migration clean, through a
   healing partition (retries), through a permanent partition (failed
   after the attempt budget), and an ``evacuate()`` under a fabric
   fault plan.  Fabric byte conservation is checked at the end of each;
3. **Traced microbenchmark** — span-level cycle attribution reconciled
   against Metrics (cycle conservation per exit chain);
4. **Scenario specs** — two spec lists run through
   :func:`repro.scenarios.run_scenarios` with the auditor armed: a slice
   of the constrained-random generator's output (both topologies, all
   three modeled architectures) and a ``faults fuzz`` campaign
   (:func:`repro.scenarios.fuzz_specs`).

Reverting the migration-lifecycle fixes in
:mod:`repro.core.migration` turns scenario families 1 and 2 red (leaked
dirty logs, paused backends), which is the point: ``make audit`` is the
tripwire that keeps those bugs fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.audit.auditor import Auditor
from repro.cluster import Cluster, TenantSpec
from repro.core.features import DvhFeatures
from repro.core.migration import LiveMigration, MigrationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultClass, FaultPlan, FaultSpec
from repro.hw.mem import PAGE_SIZE
from repro.hv.stack import StackConfig, build_stack
from repro.ooh.grants import GrantSet
from repro.scenarios import (
    ScenarioSpec,
    fuzz_specs,
    generate_specs,
    run_scenarios,
)
from repro.workloads.microbench import run_microbenchmark

__all__ = ["AuditScenario", "AuditRun", "run_audit", "render_audit"]


@dataclass
class AuditScenario:
    """One audited scenario's outcome."""

    name: str
    violations: List[str] = field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class AuditRun:
    """Everything ``python -m repro audit`` produced."""

    seed: int
    scenarios: List[AuditScenario] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.scenarios)

    @property
    def failures(self) -> List[AuditScenario]:
        return [s for s in self.scenarios if not s.ok]


# ----------------------------------------------------------------------
# Scenario family 1: single-machine migration matrix
# ----------------------------------------------------------------------
_STACKS = (
    ("L2", lambda: StackConfig(levels=2, io_model="virtio", workers=2)),
    (
        "L2+DVH",
        lambda: StackConfig(
            levels=2, io_model="vp", dvh=DvhFeatures.full(), workers=2
        ),
    ),
    ("L3", lambda: StackConfig(levels=3, io_model="virtio", workers=2)),
)


def _migration_wire_specs(now: int):
    return (
        ("clean", None),
        ("mig_bandwidth", FaultSpec(kind=FaultClass.MIG_BANDWIDTH, param=0.5)),
        (
            "mig_link_flap",
            FaultSpec(kind=FaultClass.MIG_LINK_FLAP, start=now, end=now + 700_000),
        ),
        ("mig_loss", FaultSpec(kind=FaultClass.MIG_LOSS, param=0.10)),
    )


def _spawn_firehose(stack, proc) -> None:
    """Re-dirty a 2000-page working set far faster than the wire drains
    it, so pre-copy can never converge."""
    ctx = stack.ctx(1)

    def firehose():
        i = 0
        while not proc.done:
            yield from ctx.compute(20_000)
            ctx.mem_write(0x1000_0000 + (i % 2_000) * PAGE_SIZE, PAGE_SIZE)
            i += 1

    stack.sim.spawn(firehose(), "firehose")


def _run_migration_matrix(seed: int) -> List[AuditScenario]:
    scenarios: List[AuditScenario] = []
    for stack_name, factory in _STACKS:
        # Probe run: flap windows are anchored at the settled clock.
        probe = build_stack(factory())
        probe.settle()
        for spec_name, spec in _migration_wire_specs(probe.sim.now):
            auditor = Auditor()
            stack = build_stack(factory())
            stack.settle()
            auditor.attach_stack(stack)
            if spec is not None:
                FaultInjector(
                    stack.machine, FaultPlan([spec]), seed=seed
                ).attach(stack)
            devices = (
                [stack.net.device] if stack.config.io_model == "vp" else []
            )
            mig = LiveMigration(stack.machine, stack.leaf_vm, devices=devices)
            res = stack.sim.run_process(mig.run(), f"migrate-{spec_name}")
            report = auditor.finish()
            scenarios.append(
                AuditScenario(
                    name=f"migration/{stack_name}/{spec_name}",
                    violations=[str(v) for v in report.violations],
                    detail=f"rounds={res.rounds} retries={res.retries}",
                )
            )

    # The abort path: hard downtime limit + firehose => MigrationError,
    # and the audit must find nothing leaked afterwards.
    auditor = Auditor()
    stack = build_stack(
        StackConfig(levels=2, io_model="vp", dvh=DvhFeatures.full(), workers=2)
    )
    stack.settle()
    auditor.attach_stack(stack)
    backend_device = stack.net.device
    mig = LiveMigration(
        stack.machine,
        stack.leaf_vm,
        devices=[backend_device],
        max_rounds=3,
        downtime_limit_s=0.0005,
    )
    proc = stack.sim.spawn(mig.run(), "migration-abort")
    _spawn_firehose(stack, proc)
    violations: List[str] = []
    try:
        stack.sim.run()
        violations.append("non-convergence abort never raised MigrationError")
    except MigrationError:
        pass
    report = auditor.finish()
    violations.extend(str(v) for v in report.violations)
    scenarios.append(
        AuditScenario(name="migration/L2+DVH/abort", violations=violations)
    )

    # OoH grant revocation mid-migration: pre-copy starts with the
    # dirty_logging grant active, loses it to an ooh_grant_revoke fault
    # while rounds are still draining, and must finish on the forwarded
    # path with the fallback counted — and nothing leaked.
    auditor = Auditor()
    stack = build_stack(
        StackConfig(
            levels=2, io_model="virtio", workers=2, ooh=GrantSet.migration()
        )
    )
    stack.settle()
    auditor.attach_stack(stack)
    FaultInjector(
        stack.machine,
        FaultPlan(
            [
                FaultSpec(
                    kind=FaultClass.OOH_GRANT_REVOKE,
                    start=stack.sim.now + 50_000,
                    mechanisms=("dirty_logging",),
                )
            ]
        ),
        seed=seed,
    ).attach(stack)
    mig = LiveMigration(stack.machine, stack.leaf_vm)
    res = stack.sim.run_process(mig.run(), "migrate-ooh-revoke")
    report = auditor.finish()
    violations = [str(v) for v in report.violations]
    ooh = stack.machine.ooh
    if ooh.revocations == 0:
        violations.append("ooh_grant_revoke fault never revoked the grant")
    if ooh.active("dirty_logging"):
        violations.append("dirty_logging grant still active after revocation")
    if stack.metrics.recoveries.get("ooh_fallback", 0) == 0:
        violations.append("ooh_fallback recovery not counted")
    scenarios.append(
        AuditScenario(
            name="migration/L2+OoH/grant-revoke",
            violations=violations,
            detail=f"rounds={res.rounds} revocations={ooh.revocations}",
        )
    )
    return scenarios


# ----------------------------------------------------------------------
# Scenario family 2: cluster failure matrix
# ----------------------------------------------------------------------
def _cluster_scenarios(seed: int) -> List[AuditScenario]:
    scenarios: List[AuditScenario] = []

    def other_host(cluster, tenant_name):
        src = cluster.host_of(tenant_name)
        return [h for h in cluster.hosts if h.name != src.name][0]

    def run(name: str, fault_plan, expect_error: bool, body: Callable):
        cluster = Cluster(
            num_hosts=2, seed=seed, policy="spread", fault_plan=fault_plan
        )
        auditor = Auditor().attach_cluster(cluster)
        cluster.place(TenantSpec(name="t", io_model="vp", memory_gb=8))
        violations: List[str] = []
        detail = ""
        try:
            detail = body(cluster)
            if expect_error:
                violations.append("expected MigrationError never raised")
        except MigrationError:
            if not expect_error:
                raise
        report = auditor.finish()
        violations.extend(str(v) for v in report.violations)
        scenarios.append(
            AuditScenario(name=name, violations=violations, detail=detail)
        )

    def migrate_body(cluster):
        record = cluster.migrate("t", other_host(cluster, "t").name)
        return (
            f"outcome={record.outcome} attempts={record.attempts} "
            f"retries={record.result.retries}"
        )

    run("cluster/clean", None, expect_error=False, body=migrate_body)
    run(
        "cluster/partition-heals",
        FaultPlan(
            [
                FaultSpec(
                    kind=FaultClass.FABRIC_PARTITION,
                    start=0,
                    end=50_000_000,
                    mechanisms=("host1",),
                )
            ]
        ),
        expect_error=False,
        body=migrate_body,
    )
    run(
        "cluster/partition-permanent",
        FaultPlan(
            [
                FaultSpec(
                    kind=FaultClass.FABRIC_PARTITION,
                    start=0,
                    end=None,
                    mechanisms=("host1",),
                )
            ]
        ),
        expect_error=True,
        body=migrate_body,
    )

    # Evacuation under a degraded, flapping fabric.
    cluster = Cluster(
        num_hosts=3,
        seed=seed,
        policy="spread",
        fault_plan=FaultPlan(
            [
                FaultSpec(
                    kind=FaultClass.FABRIC_PARTITION,
                    start=0,
                    end=40_000_000,
                    mechanisms=("host1",),
                ),
                FaultSpec(kind=FaultClass.FABRIC_DEGRADE, param=0.5),
            ]
        ),
    )
    auditor = Auditor().attach_cluster(cluster)
    cluster.place(TenantSpec(name="a", io_model="vp", memory_gb=8))
    cluster.place(TenantSpec(name="b", io_model="virtio", memory_gb=8))
    for name in ("a", "b"):
        if cluster.host_of(name).name != "host0":
            tenant = cluster.host_of(name).evict(name)
            cluster.host("host0").adopt(tenant)
    records = cluster.orchestrator.evacuate("host0")
    report = auditor.finish()
    outcomes = ",".join(f"{r.tenant}:{r.outcome}" for r in records)
    scenarios.append(
        AuditScenario(
            name="cluster/evacuate-under-faults",
            violations=[str(v) for v in report.violations],
            detail=outcomes,
        )
    )
    return scenarios


# ----------------------------------------------------------------------
# Scenario family 3: traced microbenchmark (cycle conservation)
# ----------------------------------------------------------------------
def _traced_scenario(seed: int) -> AuditScenario:
    stack = build_stack(
        StackConfig(
            levels=2, io_model="vp", dvh=DvhFeatures.full(), seed=seed
        )
    )
    auditor = Auditor().attach_stack(stack, trace=True)
    cycles = run_microbenchmark(stack, "ProgramTimer", iterations=10)
    report = auditor.finish()
    return AuditScenario(
        name="trace/ProgramTimer",
        violations=[str(v) for v in report.violations],
        detail=f"{cycles:,.0f} cycles/op",
    )


# ----------------------------------------------------------------------
# Scenario family 4: scenario-spec lists (generated scenarios, fuzz)
# ----------------------------------------------------------------------
def _spec_scenario(name: str, specs: Sequence[ScenarioSpec]) -> AuditScenario:
    results = run_scenarios(specs, audit=True)
    violations = [
        f"scenario {r['index']} ({r['desc']}, seed {r['seed']}): {v}"
        for r in results
        for v in (
            r["violations"]
            if r["outcome"] == "ok"
            else r["violations"] + [r["outcome"]]
        )
    ]
    archs = ",".join(sorted({s.arch for s in specs}))
    return AuditScenario(
        name=name,
        violations=violations,
        detail=f"{len(results)} scenarios across {archs}",
    )


# ----------------------------------------------------------------------
def run_audit(
    seed: int = 0,
    episodes: int = 500,
    progress: Optional[Callable[[AuditScenario], None]] = None,
) -> AuditRun:
    """Run the full audited matrix; ``episodes=0`` skips the fuzz leg."""
    run = AuditRun(seed=seed)

    def add(scenario: AuditScenario) -> None:
        run.scenarios.append(scenario)
        if progress is not None:
            progress(scenario)

    for scenario in _run_migration_matrix(seed):
        add(scenario)
    for scenario in _cluster_scenarios(seed):
        add(scenario)
    add(_traced_scenario(seed))
    add(_spec_scenario("scenarios/8-generated", generate_specs(seed, count=8)))
    if episodes > 0:
        add(_spec_scenario(f"fuzz/{episodes}-episodes", fuzz_specs(seed, episodes)))
    return run


def render_audit(run: AuditRun, verbose: bool = False) -> str:
    lines = [f"runtime invariant audit (seed {run.seed})"]
    width = max(len(s.name) for s in run.scenarios) + 2
    for scenario in run.scenarios:
        status = "ok" if scenario.ok else f"{len(scenario.violations)} VIOLATION(S)"
        detail = f"  [{scenario.detail}]" if scenario.detail and verbose else ""
        lines.append(f"  {scenario.name:<{width}} {status}{detail}")
        if not scenario.ok:
            for violation in scenario.violations:
                lines.append(f"      - {violation}")
    total = sum(len(s.violations) for s in run.scenarios)
    lines.append(
        f"{len(run.scenarios)} scenarios, {total} violation(s): "
        + ("GREEN" if run.ok else "RED")
    )
    return "\n".join(lines)
