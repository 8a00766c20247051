"""Direct tests of repro.cluster.placement: key functions, tie-breaks,
error paths — no Cluster scaffolding, just lazy hosts, policies and the
placement index that ranks them."""

import pytest

from repro.cluster.host import LOAD_PER_WORKER, ClusterHost, TenantSpec
from repro.cluster.placement import (
    BinPackPolicy,
    LoadBalancePolicy,
    PlacementError,
    PlacementIndex,
    SpreadPolicy,
    make_policy,
)
from repro.sim import Simulator, default_costs


def lazy_hosts(names):
    """Hosts that never boot a stack — placement sees only bookkeeping."""
    sim = Simulator(seed=0)
    costs = default_costs()
    return [ClusterHost(n, sim, costs, lazy=True) for n in names]


def choose(policy, hosts, spec):
    """The host a fresh index over ``hosts`` picks for ``spec``."""
    return PlacementIndex(policy, hosts).choose(spec)


def charge(host, name, memory_gb=4, load=1_000):
    host._record(_FakeTenant(TenantSpec(name=name, memory_gb=memory_gb, load=load)))


class _FakeTenant:
    """Just enough of a Tenant for capacity accounting."""

    def __init__(self, spec):
        self.spec = spec
        self.memory_bytes = spec.memory_gb << 30


# ----------------------------------------------------------------------
# Tie-breaks: equal keys must resolve by host name, not input order
# ----------------------------------------------------------------------
def test_bin_pack_tie_breaks_by_name():
    hosts = lazy_hosts(["hz", "ha", "hm"])
    # All empty: -mem_committed is 0 everywhere, name decides.
    pick = choose(BinPackPolicy(), hosts, TenantSpec(name="t"))
    assert pick.name == "ha"
    # Reversed input order, same answer.
    pick = choose(BinPackPolicy(), list(reversed(hosts)), TenantSpec(name="t"))
    assert pick.name == "ha"


def test_spread_tie_breaks_by_name():
    hosts = lazy_hosts(["hz", "ha", "hm"])
    for h in hosts:
        charge(h, f"pre-{h.name}")  # one tenant each: equal keys
    pick = choose(SpreadPolicy(), hosts, TenantSpec(name="t"))
    assert pick.name == "ha"
    pick = choose(SpreadPolicy(), list(reversed(hosts)), TenantSpec(name="t"))
    assert pick.name == "ha"


def test_load_balance_tie_breaks_by_name():
    hosts = lazy_hosts(["hz", "ha", "hm"])
    for h in hosts:
        charge(h, f"pre-{h.name}", load=500)  # equal cycle load
    pick = choose(LoadBalancePolicy(), hosts, TenantSpec(name="t"))
    assert pick.name == "ha"
    pick = choose(LoadBalancePolicy(), list(reversed(hosts)), TenantSpec(name="t"))
    assert pick.name == "ha"


# ----------------------------------------------------------------------
# Keys actually rank (not just tie-break)
# ----------------------------------------------------------------------
# (indexed first, charged after: the index re-ranks on the host's books)
def test_bin_pack_prefers_fullest_feasible():
    a, b = lazy_hosts(["a", "b"])
    index = PlacementIndex(BinPackPolicy(), [a, b])
    charge(b, "big", memory_gb=32)
    assert index.choose(TenantSpec(name="t", memory_gb=4)).name == "b"


def test_load_balance_prefers_coldest():
    a, b = lazy_hosts(["a", "b"])
    index = PlacementIndex(LoadBalancePolicy(), [a, b])
    charge(a, "hot", load=9_000)
    charge(b, "cold", load=100)
    assert index.choose(TenantSpec(name="t")).name == "b"


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------
def test_placement_error_when_no_host_fits_memory():
    hosts = lazy_hosts(["a", "b"])
    with pytest.raises(PlacementError, match="no host fits"):
        choose(BinPackPolicy(), hosts, TenantSpec(name="t", memory_gb=10_000))


def test_placement_error_on_empty_host_list():
    with pytest.raises(PlacementError):
        choose(SpreadPolicy(), [], TenantSpec(name="t"))


def test_make_policy_unknown_name_lists_choices():
    with pytest.raises(ValueError, match="unknown placement policy"):
        make_policy("first-fit")


def test_make_policy_builds_each_registered_policy():
    for name, cls in (
        ("bin-pack", BinPackPolicy),
        ("spread", SpreadPolicy),
        ("load-balance", LoadBalancePolicy),
    ):
        assert isinstance(make_policy(name), cls)


# ----------------------------------------------------------------------
# fits(): memory AND cycle-load headroom (and in-flight reservations)
# ----------------------------------------------------------------------
def test_fits_rejects_on_cycle_load_even_with_memory_free():
    (host,) = lazy_hosts(["a"])
    assert host.load_capacity == 2 * LOAD_PER_WORKER
    charge(host, "hog", memory_gb=1, load=host.load_capacity - 100)
    assert host.mem_free > 0
    assert not host.fits(TenantSpec(name="t", memory_gb=1, load=200))
    assert host.fits(TenantSpec(name="t", memory_gb=1, load=100))


def test_fits_counts_migration_reservations():
    (host,) = lazy_hosts(["a"])
    host.reserve(TenantSpec(name="inbound", memory_gb=4, load=5_000))
    assert host.mem_reserved > 0
    assert not host.fits(
        TenantSpec(name="t", memory_gb=1, load=host.load_capacity - 4_000)
    )
    host.release("inbound")
    assert host.fits(
        TenantSpec(name="t", memory_gb=1, load=host.load_capacity - 4_000)
    )
