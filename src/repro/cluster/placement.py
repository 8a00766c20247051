"""Tenant placement: policies are keys, the fleet's index picks.

A policy ranks a host by ``key(host)``, lower first.  Every fleet owns
one :class:`PlacementIndex` that keeps its hosts ordered by ``(policy
key, host name)``.  A choice walks that order best first and returns
the first host that is not excluded and ``fits`` the tenant: exactly
``min`` over the feasible hosts by ``(key, name)``.  There is no
randomness and ties break by name, so placement is reproducible from
the admission sequence alone.

Every built-in key reads only a host's books (committed memory, tenant
count, cycle load).  Those change only in ``ClusterHost._record`` and
``ClusterHost.evict``, and both re-position the host in its index.
Reservations change whether a host fits, not where it sorts.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Collection, Dict, Iterable, List, Tuple, Type

from repro.cluster.host import ClusterHost, TenantSpec

__all__ = [
    "PlacementError",
    "PlacementPolicy",
    "PlacementIndex",
    "BinPackPolicy",
    "SpreadPolicy",
    "LoadBalancePolicy",
    "POLICIES",
    "make_policy",
]


class PlacementError(RuntimeError):
    """No host can take the tenant."""


class PlacementPolicy:
    """Base class: a host's rank, lower is better."""

    #: Registry key (subclasses set it).
    name = "base"

    def key(self, host: ClusterHost):
        raise NotImplementedError


class BinPackPolicy(PlacementPolicy):
    """Fill the fullest feasible host first (consolidation: frees whole
    hosts for power-down or maintenance)."""

    name = "bin-pack"

    def key(self, host: ClusterHost):
        return -host.mem_committed


class SpreadPolicy(PlacementPolicy):
    """Fewest tenants first (blast-radius control: a host loss takes out
    as few tenants as possible)."""

    name = "spread"

    def key(self, host: ClusterHost):
        return len(host.tenants)


class LoadBalancePolicy(PlacementPolicy):
    """Lowest committed cycle load first (hot-spot avoidance)."""

    name = "load-balance"

    def key(self, host: ClusterHost):
        return host.cycle_load


class PlacementIndex:
    """A fleet's hosts in ``(policy key, host name)`` order."""

    def __init__(
        self, policy: PlacementPolicy, hosts: Iterable[ClusterHost] = ()
    ) -> None:
        self.policy = policy
        #: ``(key, name, host)`` per host, ascending.  Names are unique,
        #: so two entries never compare their hosts.
        self._order: List[Tuple[object, str, ClusterHost]] = []
        #: Host name -> its entry in ``_order``.
        self._entries: Dict[str, Tuple[object, str, ClusterHost]] = {}
        for host in hosts:
            self.add(host)

    def add(self, host: ClusterHost) -> None:
        """Index ``host``; from now on its book changes re-position it."""
        host.placement = self
        self._insert(host)

    def _insert(self, host: ClusterHost) -> None:
        entry = (self.policy.key(host), host.name, host)
        insort(self._order, entry)
        self._entries[host.name] = entry

    def update(self, host: ClusterHost) -> None:
        """Re-position ``host`` after its books changed."""
        del self._order[bisect_left(self._order, self._entries[host.name])]
        self._insert(host)

    def choose(
        self, spec: TenantSpec, exclude: Collection[str] = ()
    ) -> ClusterHost:
        """The best-ranked host not named in ``exclude`` that fits
        ``spec``; :class:`PlacementError` when there is none."""
        for _key, name, host in self._order:
            if name not in exclude and host.fits(spec):
                return host
        raise PlacementError(f"no host fits {spec.name} ({spec.memory_gb} GB)")


POLICIES: Dict[str, Type[PlacementPolicy]] = {
    cls.name: cls
    for cls in (BinPackPolicy, SpreadPolicy, LoadBalancePolicy)
}


def make_policy(name: str) -> PlacementPolicy:
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown placement policy {name!r}; "
            f"choose from {sorted(POLICIES)}"
        )
