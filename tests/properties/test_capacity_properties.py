"""Property tests for ``ClusterHost``'s running capacity totals and the
fleet's placement index: after any sequence of admissions, evictions,
reservations and releases, each total equals the sum over the host's
books it replaces, and the index picks the host a full scan would."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.host import ClusterHost, Tenant, TenantSpec
from repro.cluster.placement import (
    POLICIES,
    PlacementError,
    PlacementIndex,
    make_policy,
)
from repro.hw.machine import GB
from repro.sim import Simulator, default_costs

names = st.sampled_from([f"t{i}" for i in range(6)])
host_ids = st.integers(0, 1)
ops = st.one_of(
    st.tuples(
        st.just("record"), host_ids, names, st.integers(1, 64), st.integers(0, 9_000)
    ),
    st.tuples(st.just("evict"), host_ids, names),
    st.tuples(
        st.just("reserve"), host_ids, names, st.integers(1, 64), st.integers(0, 9_000)
    ),
    st.tuples(st.just("release"), host_ids, names),
)


def assert_totals_match_books(host):
    """The old per-call sums, kept here as the oracle."""
    tenants = host.tenants.values()
    reservations = host._reservations.values()
    assert host.mem_committed == sum(t.memory_bytes for t in tenants)
    assert host.cycle_load == sum(t.spec.load for t in tenants)
    assert host.mem_reserved == sum(s.memory_gb * GB for s in reservations)
    assert host.load_reserved == sum(s.load for s in reservations)
    assert host.mem_free == (
        host.mem_total - host.mem_committed - host.mem_reserved
    )


@settings(max_examples=300, deadline=None)
@given(program=st.lists(ops, max_size=80))
def test_running_totals_equal_sums_over_books(program):
    sim = Simulator(seed=0)
    costs = default_costs()
    hosts = [ClusterHost(f"h{i}", sim, costs, lazy=True) for i in range(2)]
    for op, host_id, name, *args in program:
        host = hosts[host_id]
        if op == "record":
            if name not in host.tenants:
                memory_gb, load = args
                spec = TenantSpec(name=name, memory_gb=memory_gb, load=load)
                host._record(Tenant(spec=spec, host=host.name, vm=None))
        elif op == "evict":
            if name in host.tenants:
                assert host.evict(name).name == name
        elif op == "reserve":
            memory_gb, load = args
            spec = TenantSpec(name=name, memory_gb=memory_gb, load=load)
            if name in host._reservations:
                with pytest.raises(ValueError):
                    host.reserve(spec)
            else:
                host.reserve(spec)
        else:
            host.release(name)  # releasing an absent name is a no-op
        for h in hosts:
            assert_totals_match_books(h)
    assert not any(h.booted for h in hosts)


def apply(host, op, name, args):
    """One step on ``host``, skipping the steps its books refuse.  An
    evict step takes the host's ``args[0]``-th tenant by name, so it
    evicts whenever the host has one."""
    if op == "record":
        if name not in host.tenants:
            memory_gb, load = args
            spec = TenantSpec(name=name, memory_gb=memory_gb, load=load)
            host._record(Tenant(spec=spec, host=host.name, vm=None))
    elif op == "evict":
        if host.tenants:
            aboard = sorted(host.tenants)
            host.evict(aboard[args[0] % len(aboard)])
    elif op == "reserve":
        if name not in host._reservations:
            memory_gb, load = args
            host.reserve(TenantSpec(name=name, memory_gb=memory_gb, load=load))
    else:
        host.release(name)


def brute_force_pick(policy, hosts, spec, exclude):
    """The scan the index replaces, kept here as the oracle."""
    feasible = [h for h in hosts if h.name not in exclude and h.fits(spec)]
    if not feasible:
        return None
    return min(feasible, key=lambda h: (policy.key(h), h.name))


fleet_ids = st.integers(0, 5)
queries = st.tuples(
    st.integers(1, 200),  # GB: above 192 nothing fits
    st.integers(0, 24_000),  # a lazy host's whole load capacity
    st.frozensets(st.sampled_from([f"h{i}" for i in range(6)]), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    policy_name=st.sampled_from(sorted(POLICIES)),
    program=st.lists(
        st.tuples(
            st.one_of(
                st.tuples(
                    st.just("record"), fleet_ids, names,
                    st.integers(1, 96), st.integers(0, 12_000),
                ),
                st.tuples(st.just("evict"), fleet_ids, names, st.integers(0, 5)),
                st.tuples(
                    st.just("reserve"), fleet_ids, names,
                    st.integers(1, 96), st.integers(0, 12_000),
                ),
                st.tuples(st.just("release"), fleet_ids, names),
            ),
            queries,
        ),
        max_size=60,
    ),
)
def test_index_pick_equals_brute_force_min(policy_name, program):
    sim = Simulator(seed=0)
    costs = default_costs()
    hosts = [ClusterHost(f"h{i}", sim, costs, lazy=True) for i in range(6)]
    policy = make_policy(policy_name)
    index = PlacementIndex(policy, reversed(hosts))
    for (op, host_id, name, *args), (memory_gb, load, exclude) in program:
        apply(hosts[host_id], op, name, args)
        spec = TenantSpec(name="q", memory_gb=memory_gb, load=load)
        want = brute_force_pick(policy, hosts, spec, exclude)
        if want is None:
            with pytest.raises(PlacementError, match="no host fits q"):
                index.choose(spec, exclude)
        else:
            assert index.choose(spec, exclude) is want
    assert not any(h.booted for h in hosts)


def test_tenants_view_is_read_only():
    host = ClusterHost("h", Simulator(seed=0), default_costs(), lazy=True)
    spec = TenantSpec(name="t", memory_gb=4, load=100)
    host._record(Tenant(spec=spec, host="h", vm=None))
    with pytest.raises(TypeError):
        host.tenants["u"] = None
    with pytest.raises(AttributeError):
        host.tenants = {}
    assert list(host.tenants) == ["t"]
    assert host.mem_committed == 4 * GB and host.cycle_load == 100
