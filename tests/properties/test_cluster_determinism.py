"""Cluster determinism: same seed => byte-identical event trace.

The cluster runs N machines on one shared simulator; these properties
pin down that the whole datacenter — placement, fabric frames, fault
windows, live migrations — is a pure function of the seed, and that
process-parallel scenario batches produce exactly the bytes a serial
run does.  The cluster scenarios are the scenario engine's cluster
topology: boot, place a tenant mix, stream host1 -> last host, evacuate
host0.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, TenantSpec
from repro.faults.plan import FaultClass
from repro.scenarios import (
    ScenarioSpec,
    mixed_tenant_draws,
    run_scenario,
    run_scenarios,
    scenario_cell,
)


def cluster_spec(seed, hosts=2, tenants=3, policy="bin-pack", **fields):
    return ScenarioSpec(
        seed=seed,
        topology="cluster",
        hosts=hosts,
        policy=policy,
        tenants=mixed_tenant_draws(tenants),
        **fields,
    )


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_same_seed_same_trace(seed):
    traces = []
    for _ in range(2):
        cluster = Cluster(num_hosts=2, seed=seed, policy="spread")
        cluster.place(TenantSpec(name="a", io_model="vp", memory_gb=8))
        cluster.place(TenantSpec(name="b", io_model="virtio", memory_gb=8))
        src = cluster.host_of("a")
        dst = [h for h in cluster.hosts if h.name != src.name][0]
        cluster.migrate("a", dst.name)
        traces.append(("\n".join(cluster.events), cluster.digest()))
    assert traces[0] == traces[1]


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    fault_seed=st.integers(min_value=0, max_value=2**16),
)
def test_same_seed_same_trace_under_fabric_faults(seed, fault_seed):
    spec = cluster_spec(
        seed,
        fault_classes=tuple(sorted(FaultClass.FABRIC)),
        fault_seed=fault_seed,
    )
    runs = [json.dumps(run_scenario(spec), sort_keys=True) for _ in range(2)]
    assert runs[0] == runs[1]


def test_demo_trace_is_stable_across_runs():
    spec = cluster_spec(0, tenants=4)
    assert run_scenario(spec) == run_scenario(spec)


def test_different_seeds_are_labelled_not_aliased():
    """Different seeds must at least record their own seed: the trace
    opens with a ``cluster up ... seed=N`` line, so even a quiet
    scenario's digest cannot coincide across seeds."""
    a = run_scenario(cluster_spec(1))
    b = run_scenario(cluster_spec(2))
    assert a["seed"] != b["seed"]
    assert a["digest"] != b["digest"]


def test_sweep_serial_and_parallel_byte_identical():
    specs = [
        cluster_spec(7, hosts=hosts, policy=policy)
        for policy in ("bin-pack", "spread", "load-balance")
        for hosts in (2, 4)
    ]
    serial = json.dumps(run_scenarios(specs, jobs=1), sort_keys=True)
    parallel = json.dumps(run_scenarios(specs, jobs=4), sort_keys=True)
    assert serial == parallel


def test_cluster_cell_is_pure():
    task = (cluster_spec(9, policy="spread").to_json(), False)
    assert scenario_cell(task) == scenario_cell(task)


def test_cluster_layer_is_zero_cost_when_unused():
    """A single-machine stack run must not touch the cross_host table:
    the cluster layer is strictly additive."""
    from repro.hv.stack import StackConfig, build_stack
    from repro.workloads.microbench import run_microbenchmark

    stack = build_stack(StackConfig(levels=2, io_model="virtio", workers=2))
    run_microbenchmark(stack, "Hypercall", 5)
    assert len(stack.metrics.cross_host) == 0
    assert stack.metrics.snapshot()["cross_host"] == {}
