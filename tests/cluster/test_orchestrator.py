"""Cross-host live migration: the §3.6 asymmetry over a real fabric."""

import pytest

from repro.cluster import Cluster, FabricChannel, TenantSpec
from repro.core.migration import MigrationError, MigrationNotSupported
from repro.faults.plan import FaultClass, FaultPlan, FaultSpec


def two_hosts(seed=0, fault_plan=None):
    return Cluster(
        num_hosts=2, seed=seed, policy="spread", fault_plan=fault_plan
    )


def other_host(cluster, tenant_name):
    src = cluster.host_of(tenant_name)
    return [h for h in cluster.hosts if h.name != src.name][0]


def test_vp_tenant_migrates_within_downtime_limit():
    cluster = two_hosts()
    cluster.place(TenantSpec(name="t", io_model="vp", memory_gb=8))
    dst = other_host(cluster, "t")
    record = cluster.migrate("t", dst.name, downtime_limit_s=0.5)
    assert record.outcome == "ok"
    assert record.result.downtime_s < 0.5
    assert record.result.bytes_transferred > 0
    # The tenant moved: source books cleared, destination charged.
    assert cluster.host_of("t").name == dst.name
    assert dst.tenants["t"].migrations == 1


def test_virtio_tenant_migrates_too():
    cluster = two_hosts()
    cluster.place(TenantSpec(name="t", io_model="virtio", memory_gb=8))
    dst = other_host(cluster, "t")
    record = cluster.migrate("t", dst.name)
    assert record.outcome == "ok"
    assert record.result.rounds >= 1


def test_passthrough_tenant_refuses_migration():
    cluster = two_hosts()
    cluster.place(TenantSpec(name="t", io_model="passthrough", memory_gb=8))
    dst = other_host(cluster, "t")
    with pytest.raises(MigrationNotSupported):
        cluster.migrate("t", dst.name)
    # Nothing moved, not a byte of pre-copy traffic was sent.
    assert cluster.host_of("t").name != dst.name
    assert cluster.fabric.metrics.cross_host_bytes("migration") == 0
    assert cluster.orchestrator.records[-1].outcome == "unsupported"


def test_migration_traffic_consumes_fabric_bandwidth():
    """Dirty-page pre-copy is visible in the cross_host table and equals
    what LiveMigration reports moving."""
    cluster = two_hosts()
    cluster.place(TenantSpec(name="t", io_model="vp", memory_gb=8))
    record = cluster.migrate("t", other_host(cluster, "t").name)
    src, dst = record.src, record.dst
    metered = cluster.fabric.metrics.cross_host[(src, dst, "migration")]
    assert metered == record.result.bytes_transferred
    assert cluster.fabric.port(src).wire.bytes_carried["out"] >= metered


def test_dirtying_workload_forces_precopy_rounds():
    # A downtime target tighter than the steady-state dirty set's fabric
    # transfer time keeps the convergence check (judged against actual
    # fabric bandwidth since the channel-aware fix) refusing to stop.
    cluster = two_hosts()
    cluster.place(
        TenantSpec(name="t", io_model="vp", memory_gb=8, dirty_pages=256)
    )
    record = cluster.migrate(
        "t", other_host(cluster, "t").name, downtime_target_s=1e-4
    )
    assert record.result.rounds >= 2


def test_partition_retries_then_succeeds_after_window():
    plan = FaultPlan(
        [
            FaultSpec(
                kind=FaultClass.FABRIC_PARTITION,
                start=0,
                end=50_000_000,
                mechanisms=("host1",),
            )
        ]
    )
    cluster = two_hosts(seed=3, fault_plan=plan)
    cluster.place(TenantSpec(name="t", io_model="vp", memory_gb=8))
    record = cluster.migrate("t", other_host(cluster, "t").name)
    assert record.outcome == "ok"
    # The orchestrator (whole-migration) or channel (chunk) level had to
    # retry at least once to get through.
    assert record.attempts > 1 or record.result.retries > 0
    assert cluster.sim.now >= 50_000_000


def test_permanent_partition_fails_after_retry_budget():
    plan = FaultPlan(
        [
            FaultSpec(
                kind=FaultClass.FABRIC_PARTITION,
                start=0,
                end=None,
                mechanisms=("host1",),
            )
        ]
    )
    cluster = two_hosts(seed=3, fault_plan=plan)
    cluster.place(TenantSpec(name="t", io_model="vp", memory_gb=8))
    with pytest.raises(MigrationError):
        cluster.migrate("t", other_host(cluster, "t").name)
    record = cluster.orchestrator.records[-1]
    assert record.outcome == "failed"
    assert record.attempts == 3
    # The tenant never moved.
    assert cluster.host_of("t").name == record.src


def test_degraded_fabric_slows_migration():
    def run(plan):
        cluster = two_hosts(seed=5, fault_plan=plan)
        cluster.place(TenantSpec(name="t", io_model="vp", memory_gb=8))
        return cluster.migrate("t", other_host(cluster, "t").name).result

    clean = run(None)
    degraded = run(
        FaultPlan([FaultSpec(kind=FaultClass.FABRIC_DEGRADE, param=0.25)])
    )
    assert degraded.total_s > 2 * clean.total_s


def test_fabric_channel_estimator_matches_actual_uncontended_transfer():
    cluster = two_hosts()
    channel = FabricChannel(cluster.fabric, "host0", "host1")
    nbytes = 4 << 20

    start = cluster.sim.now

    def proc():
        yield from channel.transfer(nbytes)

    cluster.sim.run_process(proc())
    actual = cluster.sim.now - start
    estimate = channel.transfer_cycles(nbytes)
    # Chunks pipeline on the wire, so the estimate (sequential frames)
    # bounds the actual from above, within a small factor.
    assert actual <= estimate
    assert estimate < 3 * actual


def test_evacuate_moves_movable_tenants_and_leaves_coupled_ones():
    cluster = Cluster(num_hosts=3, seed=0, policy="spread")
    cluster.place(TenantSpec(name="a", io_model="vp", memory_gb=8))
    cluster.place(TenantSpec(name="b", io_model="virtio", memory_gb=8))
    cluster.place(TenantSpec(name="c", io_model="passthrough", memory_gb=8))
    # Put everything on host0 for a clean evacuation scenario.
    for name in ("a", "b", "c"):
        if cluster.host_of(name).name != "host0":
            tenant = cluster.host_of(name).evict(name)
            cluster.host("host0").adopt(tenant)
    records = cluster.orchestrator.evacuate("host0")
    outcomes = {r.tenant: r.outcome for r in records}
    assert outcomes["a"] == "ok"
    assert outcomes["b"] == "ok"
    assert outcomes["c"] == "unsupported"
    assert sorted(cluster.host("host0").tenants) == ["c"]


def test_migrate_to_same_host_rejected():
    cluster = two_hosts()
    cluster.place(TenantSpec(name="t", io_model="vp", memory_gb=8))
    with pytest.raises(ValueError, match="already on"):
        cluster.migrate("t", cluster.host_of("t").name)


def test_bin_pack_evacuation_never_picks_the_source():
    """Regression: evacuate used to hand bin-pack the full host list,
    and bin-pack ranks the fullest host first — the host being drained.
    Destinations must come from the placement policy with the source
    excluded."""
    cluster = Cluster(num_hosts=3, seed=0, policy="bin-pack")
    # Bin-pack consolidates: all tenants land on one host.
    for i in range(3):
        cluster.place(TenantSpec(name=f"t{i}", io_model="vp", memory_gb=8))
    src = cluster.host_of("t0")
    assert all(cluster.host_of(f"t{i}").name == src.name for i in range(3))
    records = cluster.orchestrator.evacuate(src.name)
    assert len(records) == 3
    for record in records:
        assert record.outcome == "ok"
        assert record.dst != src.name
        assert cluster.host_of(record.tenant).name == record.dst
    assert cluster.host(src.name).tenants == {}


def test_evacuate_respects_extra_excludes():
    cluster = Cluster(num_hosts=3, seed=0, policy="spread")
    cluster.place(TenantSpec(name="t", io_model="vp", memory_gb=8))
    src = cluster.host_of("t")
    others = [h.name for h in cluster.hosts if h.name != src.name]
    records = cluster.orchestrator.evacuate(src.name, exclude={others[0]})
    assert records[0].outcome == "ok"
    assert records[0].dst == others[1]
