"""The datacenter fleet: hosts in racks on a spine-leaf fabric.

A :class:`Datacenter` is the ``repro.dc`` sibling of
:class:`~repro.cluster.Cluster`: both are a :class:`~repro.cluster.Fleet`
(hosts, fabric, clock, event trace, and the
:class:`~repro.cluster.orchestrator.Orchestrator` that moves tenants
between hosts), but a datacenter is built from a declarative
:class:`~repro.dc.spec.DCSpec` and sized for hundreds of hosts:

* hosts are named ``r{rack}h{idx}`` and attached to a
  :class:`~repro.dc.fabric.SpineLeafFabric` per the spec's topology;
* with ``quiescent=True`` (the default) hosts are **lazy**: a host
  contributes zero engine events, no Metrics in fast-forward
  fingerprints, and no built stack until a tenant, migration, or
  explicit touch needs it.  Accounting is byte-identical either way —
  booting parks backend processes on events, never draws the shared
  RNG, and never writes the event trace — so a 500-host fleet costs
  what its *active* hosts cost.

The :meth:`digest` deliberately covers the control-plane observables
(event trace, cross-host byte matrix, wave reports) and **not** the
final ``sim.now``: the only timing difference lazy boot may introduce
is the sub-microsecond backend-startup drain of a host that eager mode
booted earlier, after the last logged action.  Everything an operator
can observe — every log line's timestamp, every byte on the fabric —
is identical, and the determinism tests pin exactly that.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Dict

from repro.cluster import Fleet
from repro.cluster.host import ClusterHost
from repro.dc.fabric import SpineLeafFabric
from repro.dc.spec import DCSpec
from repro.sim import default_costs

__all__ = ["Datacenter"]


class Datacenter(Fleet):
    """N racks of hosts, one spine-leaf fabric, one clock, one trace."""

    def __init__(
        self,
        spec: DCSpec,
        seed: int = 0,
        quiescent: bool = True,
        costs=None,
    ) -> None:
        self.spec = spec
        self.quiescent = quiescent
        topo = spec.topology
        costs = costs if costs is not None else default_costs()
        super().__init__(
            seed,
            costs,
            spec.control.policy,
            lambda sim: SpineLeafFabric(
                sim,
                costs,
                racks=topo.racks,
                hosts_per_rack=topo.hosts_per_rack,
                spines=topo.spines,
                oversubscription=topo.oversubscription,
            ),
        )
        # Host names are interned: every fleet built from a spec names
        # its hosts alike, so reports kept from many runs (wave host
        # lists, SLO rows) share one string per name instead of each
        # holding its own copy.
        idx = 0
        for rack in range(topo.racks):
            for slot in range(topo.hosts_per_rack):
                host = ClusterHost(
                    sys.intern(f"r{rack}h{slot}"),
                    self.sim,
                    costs,
                    guest_hv=spec.hosts.guest_hv,
                    stack_levels=spec.hosts.stack_levels,
                    workers=spec.hosts.workers,
                    seed=seed + idx,
                    lazy=quiescent,
                    load_capacity=spec.hosts.load_capacity,
                )
                host.port = self.fabric.attach(host.name, rack=rack)
                self._add_host(host)
                idx += 1
        #: The attached ControlPlane (set by ControlPlane.__init__).
        self.control = None
        self._arm_faults(spec.fault_plan(self.sim.freq_hz))
        # Logged at now=0, before anything (including eager boots) runs,
        # so the trace head is identical with and without quiescence.
        self.log(
            f"dc up spec={spec.name} v{spec.version} racks={topo.racks} "
            f"hosts={len(self.hosts)} spines={topo.spines} "
            f"oversub={topo.oversubscription:g} policy={spec.control.policy} "
            f"seed={seed}"
        )

    # ------------------------------------------------------------------
    # Clock helpers
    # ------------------------------------------------------------------
    def ms(self, milliseconds: float) -> int:
        """Wall milliseconds -> simulated cycles."""
        return int(milliseconds * 1e-3 * self.sim.freq_hz)

    @property
    def horizon(self) -> int:
        return self.ms(self.spec.horizon_ms)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """sha256 over the control-plane observables: the event trace,
        the cross-host byte matrix, the wave reports, the per-tenant
        latency histograms, and the SLO-gate decisions.  Covering the
        histogram tables here is what the byte-identity tests pin:
        fast-forward on/off, serial vs ``--jobs``, quiescent or eager —
        same digest."""
        waves = []
        slo = []
        if self.control is not None:
            waves = [w.as_dict() for w in self.control.waves]
            slo = [r.as_dict() for r in getattr(self.control, "slo_reports", [])]
        snapshot = self.fabric.metrics.snapshot()
        return self._sha256(
            {
                "trace": self.events,
                "fabric": self._sorted_table(snapshot["cross_host"]),
                "latency": self._sorted_table(snapshot["latency"]),
                "latency_sum": self._sorted_table(snapshot["latency_sum"]),
                "waves": waves,
                "slo": slo,
            }
        )

    def summary(self) -> Dict:
        """A JSON-friendly fleet snapshot for the CLI and benchmarks.
        Per-host detail is listed only for occupied hosts — a 500-host
        fleet summary stays readable."""
        occupied = {
            h.name: {
                "rack": self.fabric.rack_of[h.name],
                "tenants": sorted(h.tenants),
                "mem_committed_gb": h.mem_committed >> 30,
                "cycle_load": h.cycle_load,
            }
            for h in self.hosts
            if h.tenants
        }
        by_outcome = dict(Counter(r.outcome for r in self.orchestrator.records))
        out = {
            "spec": self.spec.name,
            "version": self.spec.version,
            "seed": self.seed,
            "quiescent": self.quiescent,
            "policy": self.placement.policy.name,
            "sim_cycles": self.sim.now,
            "hosts_total": len(self.hosts),
            "hosts_booted": sum(1 for h in self.hosts if h.booted),
            "boots": sum(h.boots for h in self.hosts),
            "hosts_occupied": occupied,
            "fabric": self.fabric.stats(),
            "migrations": by_outcome,
            "events": len(self.events),
            "digest": self.digest(),
        }
        if self.control is not None:
            out["control"] = self.control.report()
            if self.spec.slo.enabled:
                out["tenant_percentiles"] = self.control.tenant_percentiles()
        return out
