"""Hex pins for the fleet layer's simulated output.

Other cluster tests check that two runs agree; these check that a run
agrees with known bytes: the CLI's cluster, dc and slo digests, and the
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


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["cluster", "demo", "--json"],
            "25fe66d99bf175c0d4d683be174d9765c5a2e3f09019adb7d5761bd7c1350b18",
        ),
        (
            ["cluster", "demo", "--slo", "--seed", "2", "--json"],
            "25bd9b62f2bc3a5d0765662032334ef221fbe832a26e09b0e37e5e2556d8d0ce",
        ),
        (
            ["--seed", "3", "cluster", "demo", "--faults", "fabric_partition",
             "fabric_host_loss", "fabric_degrade", "--json"],
            "54e9ff963e9c02819568a1ad8d493abb258ed4aa433f3ce4f9b8d6079f2491cc",
        ),
        (
            ["cluster", "migrate", "--json"],
            "d7277e93843041020ae8b08528465a310fb0d3ee4f869c2e6749ca435ad85a16",
        ),
        (
            ["dc", "demo", "--json"],
            "563ff852322ba774e54301d1d4643ef35d740bde93bb38c82e23145974155442",
        ),
        (
            ["slo", "--json"],
            "effd3aea3616a3501fe31ade49607a99d1a05e729ce2822ce92b33ac8675a690",
        ),
    ],
    ids=["demo", "demo-slo", "demo-faults", "migrate", "dc-demo", "slo"],
)
def test_cli_digest_pins(capsys, argv, digest):
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["digest"] == digest


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
