"""repro.cluster — a multi-host datacenter on one deterministic clock.

The single-machine layers (hw, hv, core) reproduce the paper's testbed
server.  This package scales the reproduction out: N such servers share
ONE :class:`~repro.sim.Simulator`, attached to a simulated top-of-rack
fabric, with tenant VMs placed by pluggable policy and live-migrated
across hosts by an orchestrator driving the §3.6 machinery over real
(simulated) network links.

The paper's central migration asymmetry becomes a datacenter-operations
property here: DVH virtual-passthrough tenants evacuate cleanly while
physical-passthrough tenants pin their host, because
:class:`~repro.core.migration.LiveMigration` refuses hardware-coupled
VMs — no cluster-level special case needed.

Everything is additive: nothing here is imported by the single-machine
paths, the ``cross_host`` metrics table stays empty off-cluster, and a
fixed seed reproduces the same event trace byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Generator, List, Optional

from repro.cluster.fabric import Fabric, FabricFrame, FabricPort, UndeliverableError
from repro.cluster.host import ClusterHost, Tenant, TenantSpec
from repro.cluster.orchestrator import FabricChannel, MigrationRecord, Orchestrator
from repro.cluster.placement import (
    POLICIES,
    BinPackPolicy,
    LoadBalancePolicy,
    PlacementError,
    PlacementIndex,
    PlacementPolicy,
    SpreadPolicy,
    make_policy,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim import Simulator, costs_for_arch

__all__ = [
    "Fleet",
    "Cluster",
    "ClusterHost",
    "Tenant",
    "TenantSpec",
    "Fabric",
    "FabricFrame",
    "FabricPort",
    "FabricChannel",
    "UndeliverableError",
    "Orchestrator",
    "MigrationRecord",
    "PlacementPolicy",
    "PlacementIndex",
    "PlacementError",
    "BinPackPolicy",
    "SpreadPolicy",
    "LoadBalancePolicy",
    "POLICIES",
    "make_policy",
    "canonical_sha256",
]


def canonical_sha256(payload) -> str:
    """sha256 over the compact, key-sorted JSON of ``payload``: the
    scenario spec, scenario state and study digests hash these bytes."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Fleet:
    """Hosts on one fabric, one clock, one event trace: the fleet state
    an :class:`Orchestrator` drives.  :class:`Cluster` and
    :class:`~repro.dc.Datacenter` build it from a host count or from a
    datacenter spec; each keeps its own ``digest``."""

    def __init__(
        self, seed: int, costs, policy: str, fabric: Callable[[Simulator], Fabric]
    ) -> None:
        self.seed = seed
        self.sim = Simulator(seed=seed)
        self.costs = costs
        self.fabric = fabric(self.sim)
        #: The fleet's hosts ranked by its placement policy: every
        #: placement and migration destination is chosen here.
        self.placement = PlacementIndex(make_policy(policy))
        #: The deterministic event trace: every placement, migration and
        #: fault decision, stamped with the shared simulated clock.
        self.events: List[str] = []
        self.hosts: List[ClusterHost] = []
        self.orchestrator = Orchestrator(self)
        #: Fabric-level fault injector (or None).  Attached to the
        #: Fabric, which quacks enough like a machine (sim + metrics).
        self.faults = None
        #: Runtime invariant auditor (see repro.audit), or None =
        #: auditing off; the orchestrator consults it.
        self.audit = None

    def _add_host(self, host: ClusterHost) -> None:
        self.hosts.append(host)
        self.placement.add(host)

    def _arm_faults(self, plan: Optional[FaultPlan]) -> None:
        if plan is not None and not plan.is_empty:
            self.faults = FaultInjector(self.fabric, plan, seed=self.seed).attach()

    def host(self, name: str) -> ClusterHost:
        for h in self.hosts:
            if h.name == name:
                return h
        raise KeyError(f"no host named {name!r}")

    def host_of(self, tenant_name: str) -> ClusterHost:
        for h in self.hosts:
            if tenant_name in h.tenants:
                return h
        raise KeyError(f"no tenant named {tenant_name!r}")

    def log(self, message: str) -> None:
        self.events.append(f"{self.sim.now:>14} {message}")

    @staticmethod
    def _sorted_table(table: Dict) -> Dict[str, object]:
        """A Metrics table with string keys, in key-string order."""
        return {str(k): v for k, v in sorted(table.items(), key=lambda kv: str(kv[0]))}

    @staticmethod
    def _sha256(payload: Dict) -> str:
        """sha256 over the canonical (key-sorted) JSON of ``payload``."""
        # Default separators, not canonical_sha256's: fleet digests are hex-pinned.
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Cluster(Fleet):
    """N booted hosts, one fabric, one clock, one event trace."""

    def __init__(
        self,
        num_hosts: int = 4,
        seed: int = 0,
        policy: str = "bin-pack",
        guest_hv: str = "kvm",
        arch: str = "x86",
        stack_levels: int = 2,
        workers: int = 2,
        costs=None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if num_hosts < 1:
            raise ValueError("a cluster needs at least one host")
        costs = costs if costs is not None else costs_for_arch(arch)
        super().__init__(seed, costs, policy, lambda sim: Fabric(sim, costs))
        self.arch = arch
        for i in range(num_hosts):
            host = ClusterHost(
                f"host{i}",
                self.sim,
                costs,
                guest_hv=guest_hv,
                arch=arch,
                stack_levels=stack_levels,
                workers=workers,
                seed=seed + i,
            )
            host.port = self.fabric.attach(host.name)
            self._add_host(host)
        self._arm_faults(fault_plan)
        # Drain boot-time backend startup so the trace starts quiet.
        self.sim.run()
        # Non-default arches announce themselves; the default keeps the
        # pre-arch trace (and so every pinned digest) byte-identical.
        arch_note = f" arch={arch}" if arch != "x86" else ""
        self.log(
            f"cluster up hosts={num_hosts} policy={policy} "
            f"guest_hv={guest_hv}{arch_note} levels={stack_levels} seed={seed}"
        )

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(self, spec: TenantSpec) -> Tenant:
        """Admit a tenant on the host the placement index picks."""
        host = self.placement.choose(spec)
        tenant = host.admit(spec)
        self.sim.run()  # settle backend startup deterministically
        self.log(
            f"place {spec.name} io={spec.io_model} mem={spec.memory_gb}GB "
            f"-> {host.name}"
        )
        return tenant

    def migrate(self, tenant_name: str, dst_host: str, **kwargs) -> MigrationRecord:
        return self.orchestrator.migrate(tenant_name, dst_host, **kwargs)

    def enable_audit(self):
        """Arm the runtime invariant auditor over every host and the
        fabric; returns the :class:`~repro.audit.Auditor` (call its
        ``finish()`` after the run).  Opt-in: auditing observes only,
        the simulated bytes are identical either way."""
        from repro.audit import Auditor

        return Auditor().attach_cluster(self)

    # ------------------------------------------------------------------
    # Cross-host tenant traffic
    # ------------------------------------------------------------------
    def stream(
        self,
        src_host: str,
        dst_host: str,
        nbytes: int,
        chunk: int = 64 * 1024,
        retry_backoff_cycles: int = 500_000,
    ):
        """Spawn a background bulk flow src -> dst (kind "net"): the
        contention migrations feel on a busy fabric.  Chunks that hit a
        partition window wait out the backoff and retry forever — a
        patient bulk copy.  Returns the spawned process."""
        return self.sim.spawn(
            self._stream(src_host, dst_host, nbytes, chunk, retry_backoff_cycles),
            name=f"stream:{src_host}->{dst_host}",
        )

    def _stream(
        self, src: str, dst: str, nbytes: int, chunk: int, backoff: int
    ) -> Generator:
        sent = 0
        while sent < nbytes:
            size = min(chunk, nbytes - sent)
            try:
                yield from self.fabric.transfer(src, dst, size, kind="net")
            except UndeliverableError:
                yield backoff
                continue
            sent += size

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """sha256 over the trace plus the fabric metrics snapshot."""
        return self._sha256(
            {
                "trace": self.events,
                "fabric": self._sorted_table(
                    self.fabric.metrics.snapshot()["cross_host"]
                ),
                "now": self.sim.now,
            }
        )
