"""Hex pins for the fleet layer's simulated output.

Other cluster tests check that two runs agree; these check that a run
agrees with known bytes: the scenario engine's cluster run, a spread
boot, two cross-host migrations, the CLI's dc, slo and 200-host fleet
digests (with the fleet's control-plane and fabric figures), and the
orchestrator's failed-attempt, backoff and evacuation paths.  A change
that moves any of these digests changes simulated output and must say
so.
"""

import json

import pytest

from repro.cli import main
from repro.cluster import Cluster, TenantSpec
from repro.core.migration import MigrationError
from repro.faults.plan import FaultClass, FaultPlan, FaultSpec
from repro.scenarios import ScenarioSpec, mixed_tenant_draws, run_scenario


#: The 200-host fleet run's figures besides its digest, by dotted path
#: into its ``--json`` output.
FLEET_FIGURES = {
    "sim_cycles": 249_252_639,
    "hosts_booted": 3,
    "fabric.trunk_bytes": 649_129_984,
    "control.admitted": 40,
    "control.pinned_per_wave": [3, 0, 0, 0, 0, 0, 0, 0],
    "control.upgraded_total": 197,
    "control.rebalance_moves": 2,
}


def _field(out, path):
    for part in path.split("."):
        out = out[part]
    return out


@pytest.mark.parametrize(
    "argv, digest, figures",
    [
        (
            ["dc", "demo", "--json"],
            "563ff852322ba774e54301d1d4643ef35d740bde93bb38c82e23145974155442",
            {},
        ),
        (
            ["dc", "run", "--spec", "slo", "--json"],
            "effd3aea3616a3501fe31ade49607a99d1a05e729ce2822ce92b33ac8675a690",
            {},
        ),
        (
            ["dc", "run", "--spec", "fleet", "--json"],
            "4c5eaa929cdea7631fa2fc9ad012c3c39ebbcb399d84c9f1982e07fa2b23a2a9",
            FLEET_FIGURES,
        ),
    ],
    ids=["dc-demo", "slo", "fleet"],
)
def test_cli_digest_pins(capsys, argv, digest, figures):
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert {path: _field(out, path) for path in figures} == figures
    assert out["digest"] == digest


def test_cluster_scenario_pin():
    """Boot four hosts, place the six-tenant mix bin-packed, stream
    host1 -> host3 and evacuate host0: the DVH tenants move, the
    passthrough one pins its host."""
    spec = ScenarioSpec(
        seed=0,
        topology="cluster",
        hosts=4,
        policy="bin-pack",
        levels=2,
        workers=2,
        tenants=mixed_tenant_draws(6),
    )
    result = run_scenario(spec)
    assert (result["outcome"], result["violations"]) == ("ok", [])
    assert result["digest"] == (
        "25fe66d99bf175c0d4d683be174d9765c5a2e3f09019adb7d5761bd7c1350b18"
    )


def test_single_migration_pin():
    cluster = Cluster(num_hosts=2, seed=0, policy="bin-pack")
    cluster.place(TenantSpec(name="tenant0", io_model="vp", memory_gb=8))
    record = cluster.migrate("tenant0", "host1", downtime_limit_s=0.5)
    assert (record.src, record.outcome, record.attempts) == ("host0", "ok", 1)
    assert cluster.digest() == (
        "d7277e93843041020ae8b08528465a310fb0d3ee4f869c2e6749ca435ad85a16"
    )


def test_spread_boot_pin():
    """Four hosts place the six-tenant mix spread: two hosts take two
    tenants, and the clock reads 920 cycles once all six are placed."""
    cluster = Cluster(num_hosts=4, seed=0, policy="spread")
    for draw in mixed_tenant_draws(6):
        cluster.place(draw.to_tenant_spec())
    assert cluster.sim.now == 920
    assert sorted(len(h.tenants) for h in cluster.hosts) == [1, 1, 2, 2]
    assert cluster.digest() == (
        "e25710cfec8db2f0f9aba20b27b2e185fc04bc726fea0e3919552b98e8665bae"
    )


def test_dirtying_migration_pin():
    """A vp tenant re-dirtying 128 pages moves host0 -> host1 over the
    fabric in one pre-copy round."""
    cluster = Cluster(num_hosts=2, seed=0, policy="spread")
    cluster.place(
        TenantSpec(name="t", io_model="vp", memory_gb=8, dirty_pages=128)
    )
    assert cluster.host_of("t").name == "host0"
    record = cluster.migrate("t", "host1")
    assert round(record.result.downtime_s * 1e3, 3) == 1.763
    assert record.result.rounds == 1
    assert cluster.fabric.metrics.cross_host_bytes("migration") == 18_877_440
    assert cluster.digest() == (
        "b51c7a67b9408a5969f0cb4019e6ccb59cc319e2b0c473bddf7a1fb7ca4da442"
    )


def partition(end):
    return FaultSpec(
        kind=FaultClass.FABRIC_PARTITION, start=0, end=end, mechanisms=("host1",)
    )


def partitioned_pair(end):
    """Two hosts, host1 partitioned from cycle 0, a vp tenant on host0
    and a bulk stream racing its migration."""
    cluster = Cluster(
        num_hosts=2, seed=0, policy="spread", fault_plan=FaultPlan([partition(end)])
    )
    cluster.place(TenantSpec(name="t", io_model="vp", memory_gb=8))
    assert cluster.host_of("t").name == "host0"
    cluster.stream("host0", "host1", 4 << 20)
    return cluster


def test_partition_heals_pin():
    cluster = partitioned_pair(50_000_000)
    record = cluster.migrate("t", "host1")
    assert (record.outcome, record.attempts, record.result.retries) == ("ok", 3, 19)
    assert cluster.sim.now == 73_200_920
    assert cluster.digest() == (
        "6c8a968d1404b84f562db9a2a79de833baf2d850463a85fce7e5ec72b644ef27"
    )


def test_partition_permanent_pin():
    cluster = partitioned_pair(None)
    with pytest.raises(MigrationError):
        cluster.migrate("t", "host1")
    record = cluster.orchestrator.records[-1]
    assert (record.outcome, record.attempts) == ("failed", 3)
    assert cluster.sim.now == 60_400_920
    assert cluster.digest() == (
        "d734492db8064ed5b63e8746753e2c7284e14fd295b071272f91dd3d5826a3f3"
    )


def test_evacuation_under_faults_pin():
    cluster = Cluster(
        num_hosts=3,
        seed=0,
        policy="spread",
        fault_plan=FaultPlan(
            [
                partition(40_000_000),
                FaultSpec(kind=FaultClass.FABRIC_DEGRADE, param=0.5),
            ]
        ),
    )
    for name, io in (("a", "vp"), ("b", "virtio"), ("p", "passthrough")):
        cluster.place(TenantSpec(name=name, io_model=io, memory_gb=8))
    for name in ("a", "b", "p"):
        if cluster.host_of(name).name != "host0":
            cluster.host("host0").adopt(cluster.host_of(name).evict(name))
    records = cluster.orchestrator.evacuate("host0")
    assert [f"{r.tenant}:{r.outcome}/{r.attempts}" for r in records] == [
        "a:ok/3", "b:ok/1", "p:unsupported/1",
    ]
    assert cluster.sim.now == 111_200_920
    assert cluster.digest() == (
        "5ad307f041905e7e3fa44d014e79ba310b1fe5bd6d3597b6d9aa072c8bb0cd2e"
    )
