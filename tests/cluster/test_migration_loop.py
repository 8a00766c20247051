"""The orchestrator's one attempt loop, through both drivers.

Blocking callers (``migrate``/``evacuate``) and in-simulation callers
(``migrate_async``) share one loop.  Whatever the outcome, the
destination reservation the loop takes is released, and the blocking
driver never yields into the simulator.
"""

import pytest

from repro.cluster import Cluster, TenantSpec
from repro.cluster.orchestrator import _run_blocking
from repro.core.migration import MigrationError, MigrationNotSupported
from repro.faults.plan import FaultClass, FaultPlan, FaultSpec

#: (io model, end of host1's partition, outcome the loop must record):
#: ``None`` partitions host1 for good, "clean" means no fault plan.
OUTCOMES = [
    ("vp", "clean", "ok"),
    ("vp", None, "failed"),
    ("passthrough", "clean", "unsupported"),
]

RAISES = {"failed": MigrationError, "unsupported": MigrationNotSupported}


def cluster_with(io_model, partition_end, num_hosts=2):
    plan = None
    if partition_end != "clean":
        plan = FaultPlan(
            [
                FaultSpec(
                    kind=FaultClass.FABRIC_PARTITION,
                    start=0,
                    end=partition_end,
                    mechanisms=("host1",),
                )
            ]
        )
    cluster = Cluster(num_hosts=num_hosts, seed=0, policy="spread", fault_plan=plan)
    cluster.place(TenantSpec(name="t", io_model=io_model, memory_gb=8))
    assert cluster.host_of("t").name == "host0"
    return cluster


def assert_no_reservations(cluster):
    """No reservation is left behind, and each host's committed totals
    still equal the sums over the tenants it holds."""
    for host in cluster.hosts:
        assert host._mem_reserved == 0, host.name
        assert host._load_reserved == 0, host.name
        tenants = host.tenants.values()
        assert host.mem_committed == sum(t.memory_bytes for t in tenants), host.name
        assert host.cycle_load == sum(t.spec.load for t in tenants), host.name


@pytest.mark.parametrize("io_model, partition_end, outcome", OUTCOMES)
def test_blocking_migrate_releases_reservation(io_model, partition_end, outcome):
    cluster = cluster_with(io_model, partition_end)
    if outcome in RAISES:
        with pytest.raises(RAISES[outcome]):
            cluster.migrate("t", "host1")
    else:
        cluster.migrate("t", "host1")
    assert cluster.orchestrator.records[-1].outcome == outcome
    assert_no_reservations(cluster)


@pytest.mark.parametrize("io_model, partition_end, outcome", OUTCOMES)
def test_blocking_evacuate_releases_reservation(io_model, partition_end, outcome):
    cluster = cluster_with(io_model, partition_end)
    records = cluster.orchestrator.evacuate("host0")
    assert [r.outcome for r in records] == [outcome]
    assert_no_reservations(cluster)


@pytest.mark.parametrize("io_model, partition_end, outcome", OUTCOMES)
def test_async_migrate_reserves_then_releases(io_model, partition_end, outcome):
    cluster = cluster_with(io_model, partition_end)
    dst = cluster.host("host1")
    seen = {}

    def control_plane():
        seen["record"] = yield from cluster.orchestrator.migrate_async("t", "host1")

    def probe():
        # One cycle in, the migration is in flight (or already refused).
        yield 1
        seen["in_flight"] = dst._mem_reserved

    cluster.sim.spawn(control_plane(), "control")
    cluster.sim.spawn(probe(), "probe")
    cluster.sim.run()
    assert seen["record"].outcome == outcome
    if outcome != "unsupported":
        assert seen["in_flight"] == 8 << 30
    assert_no_reservations(cluster)


def test_blocking_driver_never_yields():
    """Backoff and failed attempts on the blocking path run the clock
    themselves: the loop completes without a single yield (the helper
    would raise on one)."""
    cluster = cluster_with("vp", 50_000_000)
    record = cluster.migrate("t", "host1")
    assert (record.outcome, record.attempts) == ("ok", 3)


def test_blocking_helper_fails_loudly_on_a_yield():
    def yields():
        yield 5

    with pytest.raises(RuntimeError, match="yielded 5"):
        _run_blocking(yields())
