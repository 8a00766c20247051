"""Cluster experiment cells: demo scenarios and policy sweeps.

The cell workers live at module level so they pickle under the spawn
start method, exactly like :mod:`repro.bench.parallel`'s Table-3 cells:
``python -m repro cluster sweep --jobs N`` fans cells out to worker
processes and produces byte-identical output to a serial run, because
every cell is a pure function of ``(policy, hosts, tenants, seed)`` and
results are assembled in task order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.parallel import map_cells

__all__ = [
    "standard_tenants",
    "run_demo",
    "cluster_cell",
    "run_sweep",
    "SWEEP_POLICIES",
    "SWEEP_HOST_COUNTS",
]

SWEEP_POLICIES: Tuple[str, ...] = ("bin-pack", "spread", "load-balance")
SWEEP_HOST_COUNTS: Tuple[int, ...] = (2, 4)

def standard_tenants(count: int) -> List:
    """A deterministic tenant fleet of ``count`` mixed-I/O tenants.
    The mix formula lives in :mod:`repro.scenarios.generator` (the one
    generator behind the fuzzer, the audit matrix and these sweeps);
    this canonical fleet is its unrotated draw."""
    from repro.scenarios.generator import mixed_tenant_specs

    return mixed_tenant_specs(count)


#: ``run_demo(slo=True)`` sampling program: tick cadence and count.
SLO_DEMO_SAMPLE_S = 2e-5
SLO_DEMO_TICKS = 150


def run_demo(
    seed: int = 0,
    num_hosts: int = 4,
    num_tenants: int = 6,
    policy: str = "bin-pack",
    guest_hv: str = "kvm",
    arch: str = "x86",
    fault_plan=None,
    audit: bool = False,
    slo: bool = False,
) -> Dict:
    """The canonical cluster scenario: boot, place a mixed fleet, run a
    cross-host stream, then evacuate host0 — the DVH tenants move, the
    hardware-coupled ones stay.  Returns the cluster summary dict.
    ``audit=True`` arms the runtime invariant auditor and adds an
    ``"audit"`` section to the summary (the simulated bytes — trace,
    digest — are identical either way).  ``slo=True`` samples every
    placed tenant's request latency on a fixed cadence during the run
    (see :mod:`repro.cluster.telemetry`) and adds a per-tenant
    percentile table — the evacuation's load shift lands in the tails."""
    from repro.core.migration import MigrationError, MigrationNotSupported
    from repro.cluster import Cluster

    cluster = Cluster(
        num_hosts=num_hosts,
        seed=seed,
        policy=policy,
        guest_hv=guest_hv,
        arch=arch,
        fault_plan=fault_plan,
    )
    auditor = cluster.enable_audit() if audit else None
    for spec in standard_tenants(num_tenants):
        cluster.place(spec)
    if slo:
        from repro.cluster.telemetry import sample_host

        def telemetry():
            gap = max(1, cluster.sim.cycles(SLO_DEMO_SAMPLE_S))
            for tick in range(1, SLO_DEMO_TICKS + 1):
                yield gap
                for host in cluster.hosts:
                    if host.tenants:
                        sample_host(cluster.fabric.metrics, host, tick)

        cluster.sim.spawn(telemetry(), "telemetry")
    if num_hosts >= 2:
        cluster.stream("host1", f"host{num_hosts - 1}", 8 << 20)
        try:
            cluster.orchestrator.evacuate("host0")
        except (MigrationError, MigrationNotSupported):
            pass  # recorded in the trace; the demo reports what happened
        cluster.sim.run()
    summary = cluster.summary()
    summary["trace"] = cluster.events
    if slo:
        from repro.cluster.telemetry import percentile_table

        tenants = cluster.tenants()
        summary["tenant_percentiles"] = percentile_table(
            cluster.fabric.metrics,
            lambda series: (
                tenants[series].spec.io_model if series in tenants else ""
            ),
        )
    if auditor is not None:
        summary["audit"] = auditor.finish().as_dict()
    return summary


def cluster_cell(task: Tuple[str, int, int, int]) -> Dict:
    """One sweep cell: (policy, hosts, tenants, seed) -> placement and
    migration figures.  Pure; safe to run in a worker process."""
    policy, num_hosts, num_tenants, seed = task
    from repro.core.migration import MigrationError, MigrationNotSupported
    from repro.cluster import Cluster

    cluster = Cluster(num_hosts=num_hosts, seed=seed, policy=policy)
    for spec in standard_tenants(num_tenants):
        cluster.place(spec)

    # Migrate the first migratable tenant to the emptiest other host.
    migrated: Optional[Dict] = None
    for name, tenant in sorted(cluster.tenants().items()):
        if tenant.spec.io_model == "passthrough":
            continue
        src = cluster.host_of(name)
        others = [h for h in cluster.hosts if h.name != src.name]
        if not others:
            break
        dst = min(others, key=lambda h: (h.mem_committed, h.name))
        try:
            record = cluster.migrate(name, dst.name)
        except (MigrationError, MigrationNotSupported):
            break
        migrated = {
            "tenant": name,
            "downtime_ms": round(record.result.downtime_s * 1e3, 3),
            "rounds": record.result.rounds,
            "bytes": record.result.bytes_transferred,
        }
        break

    spread = sorted(len(h.tenants) for h in cluster.hosts)
    return {
        "policy": policy,
        "hosts": num_hosts,
        "tenants": num_tenants,
        "tenants_per_host": spread,
        "max_load": max(h.cycle_load for h in cluster.hosts),
        "migration": migrated,
        "fabric_migration_bytes": cluster.fabric.metrics.cross_host_bytes(
            "migration"
        ),
        "digest": cluster.digest(),
    }


def run_sweep(
    seed: int = 0,
    policies: Sequence[str] = SWEEP_POLICIES,
    host_counts: Sequence[int] = SWEEP_HOST_COUNTS,
    num_tenants: int = 6,
    jobs: Optional[int] = None,
) -> List[Dict]:
    """Sweep placement policies across cluster sizes.  ``jobs`` fans the
    independent cells out to processes; output order (and bytes) never
    depends on it."""
    tasks = [
        (policy, hosts, num_tenants, seed)
        for policy in policies
        for hosts in host_counts
    ]
    return map_cells(cluster_cell, tasks, jobs)
