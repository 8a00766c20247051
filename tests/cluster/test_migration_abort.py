"""Migration abort paths: a partition may kill a migration in any
phase — round 0, the iterative pre-copy rounds, or stop-and-copy (after
the backends are already paused) — and *every* one of those exits must
leave the tenant clean: CPU dirty log detached, device dirty logging
off, backends running.  Before the teardown fix, a stop-and-copy kill
left the backends paused forever and every retry stacked a fresh dirty
log on top of the leaked one.

The phase-targeted tests exploit determinism: a clean probe run of the
same seed measures when a phase happens, then the real run opens a
fabric partition window at exactly that instant.
"""

import pytest

from repro.cluster import Cluster, TenantSpec
from repro.cluster.orchestrator import FabricChannel
from repro.core.migration import MigrationError
from repro.faults.plan import FaultClass, FaultPlan, FaultSpec
from repro.hv.virtio_backend import HostVhost


def two_hosts(seed=0, fault_plan=None, num_hosts=2):
    return Cluster(
        num_hosts=num_hosts, seed=seed, policy="spread", fault_plan=fault_plan
    )


def other_host(cluster, tenant_name):
    src = cluster.host_of(tenant_name)
    return [h for h in cluster.hosts if h.name != src.name][0]


def place_vp(cluster, name="t"):
    cluster.place(TenantSpec(name=name, io_model="vp", memory_gb=8))
    return cluster.host_of(name).tenants[name]


def assert_clean(cluster, tenant_name):
    """No migration-held resource leaked: dirty logs gone, device
    logging off, backends running."""
    tenant = cluster.host_of(tenant_name).tenants[tenant_name]
    host = cluster.host_of(tenant_name)
    assert tenant.vm.memory._dirty_logs == set()
    for device in tenant.devices:
        backend = host.machine.host_hv.backends.get(device)
        if backend is not None:
            assert backend.dirty_log is None
            assert not backend.paused


def partition_plan(start, end):
    return FaultPlan(
        [
            FaultSpec(
                kind=FaultClass.FABRIC_PARTITION,
                start=start,
                end=end,
                mechanisms=("host1",),
            )
        ]
    )


def probe_pause_time(seed=0, **migrate_kwargs):
    """Clean run of the canonical scenario; returns (t_start, t_pause,
    t_end): when the migration began, when stop-and-copy paused the
    backends, and when it all finished.  Deterministic, so the same
    instants recur in a faulted run of the same seed — up to the moment
    the first fault hits."""
    pauses = []
    orig_pause = HostVhost.pause

    def recording_pause(self):
        pauses.append(self.machine.sim.now)
        orig_pause(self)

    HostVhost.pause = recording_pause
    try:
        cluster = two_hosts(seed)
        place_vp(cluster)
        t_start = cluster.sim.now
        cluster.migrate("t", other_host(cluster, "t").name)
        return t_start, pauses[0], cluster.sim.now
    finally:
        HostVhost.pause = orig_pause


# ----------------------------------------------------------------------
# Kill during round 0 (the initial full copy)
# ----------------------------------------------------------------------
def test_round0_kill_retries_and_leaves_clean_state():
    cluster = two_hosts(fault_plan=partition_plan(0, 50_000_000))
    place_vp(cluster)
    record = cluster.migrate("t", other_host(cluster, "t").name)
    assert record.outcome == "ok"
    assert record.attempts > 1  # round-0 attempts died in the window
    assert cluster.host_of("t").name == record.dst
    assert_clean(cluster, "t")


def test_permanent_partition_leaves_no_stacked_logs():
    """Three attempts, three MigrationErrors — and zero leaked logs or
    paused backends afterwards (the old code left three stacked logs)."""
    cluster = two_hosts(fault_plan=partition_plan(0, None))
    place_vp(cluster)
    with pytest.raises(MigrationError):
        cluster.migrate("t", other_host(cluster, "t").name)
    record = cluster.orchestrator.records[-1]
    assert record.outcome == "failed"
    assert record.attempts == 3
    assert cluster.host_of("t").name == record.src  # never moved
    assert_clean(cluster, "t")


# ----------------------------------------------------------------------
# Kill during the iterative pre-copy rounds
# ----------------------------------------------------------------------
def test_iterative_round_kill_leaves_clean_state():
    # In the clean probe the migration converges after round 0, so
    # t_pause marks the end of the initial full copy.  With a tight
    # downtime target the channel-aware convergence check refuses to
    # stop there and keeps iterating — a window opening shortly *after*
    # t_pause lands inside those iterative re-copy rounds.
    t_start, t_pause, _t_end = probe_pause_time()
    mid_iterative = t_pause + (t_pause - t_start) // 10
    cluster = two_hosts(fault_plan=partition_plan(mid_iterative, None))
    place_vp(cluster)
    with pytest.raises(MigrationError):
        cluster.migrate(
            "t", other_host(cluster, "t").name, downtime_target_s=1e-4
        )
    assert cluster.orchestrator.records[-1].outcome == "failed"
    assert_clean(cluster, "t")


# ----------------------------------------------------------------------
# Kill during stop-and-copy (backends already paused — the key leak)
# ----------------------------------------------------------------------
def test_stop_and_copy_kill_resumes_backends():
    _start, t_pause, _end = probe_pause_time()
    cluster = two_hosts(fault_plan=partition_plan(t_pause + 1, None))
    place_vp(cluster)
    with pytest.raises(MigrationError):
        cluster.migrate("t", other_host(cluster, "t").name)
    # The first attempt died with the backends paused; teardown must
    # have resumed them, and no retry may find a stale log.
    assert_clean(cluster, "t")


def test_stop_and_copy_kill_then_retry_succeeds():
    _start, t_pause, _end = probe_pause_time()
    # Window long enough to exhaust attempt 1's chunk-retry budget
    # (~19M cycles of backoff), short enough that attempt 2 gets through.
    cluster = two_hosts(fault_plan=partition_plan(t_pause + 1, t_pause + 30_000_000))
    place_vp(cluster)
    record = cluster.migrate("t", other_host(cluster, "t").name)
    assert record.outcome == "ok"
    assert record.attempts > 1 or record.result.retries > 0
    assert cluster.host_of("t").name == record.dst
    assert_clean(cluster, "t")


# ----------------------------------------------------------------------
# Chunk retries carried across attempts (the dropped-retries bug)
# ----------------------------------------------------------------------
def test_chunk_retries_carried_across_attempts(monkeypatch):
    created = []
    orig_init = FabricChannel.__init__

    def recording_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(FabricChannel, "__init__", recording_init)
    cluster = two_hosts(fault_plan=partition_plan(0, 50_000_000))
    place_vp(cluster)
    record = cluster.migrate("t", other_host(cluster, "t").name)
    assert record.outcome == "ok"
    assert record.attempts > 1
    assert len(created) == record.attempts  # one fresh channel each
    # The recorded total is the sum over every attempt's channel — the
    # old code reported only the last channel's count, dropping the
    # failed attempts' chunk retries.
    assert record.result.retries == sum(c.retries for c in created)
    assert sum(c.retries for c in created[:-1]) > 0


# ----------------------------------------------------------------------
# Evacuation under a fabric fault plan
# ----------------------------------------------------------------------
def test_evacuate_under_fault_plan_moves_tenants_cleanly():
    plan = FaultPlan(
        [
            FaultSpec(
                kind=FaultClass.FABRIC_PARTITION,
                start=0,
                end=40_000_000,
                mechanisms=("host1",),
            ),
            FaultSpec(kind=FaultClass.FABRIC_DEGRADE, param=0.5),
        ]
    )
    cluster = two_hosts(num_hosts=3, fault_plan=plan)
    cluster.place(TenantSpec(name="a", io_model="vp", memory_gb=8))
    cluster.place(TenantSpec(name="b", io_model="virtio", memory_gb=8))
    for name in ("a", "b"):
        if cluster.host_of(name).name != "host0":
            tenant = cluster.host_of(name).evict(name)
            cluster.host("host0").adopt(tenant)
    records = cluster.orchestrator.evacuate("host0")
    outcomes = {r.tenant: r.outcome for r in records}
    assert outcomes == {"a": "ok", "b": "ok"}
    assert cluster.host("host0").tenants == {}
    for name in ("a", "b"):
        assert_clean(cluster, name)
