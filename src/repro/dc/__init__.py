"""repro.dc — a spine-leaf datacenter with a live control plane.

Scales :mod:`repro.cluster` from a handful of hosts behind one ToR to
hundreds of hosts in racks behind a leaf tier cross-connected through
spines, described declaratively (versioned JSON spec files, no new
dependencies) and managed by an event-driven control plane running *on
the simulated clock*: admission through the placement policies,
threshold rebalancing via live migration, and rolling kernel-upgrade
waves (evacuate -> reboot -> readmit) under continuous tenant traffic.

The paper's §3.6 migration asymmetry becomes a fleet-capacity metric
here: each upgrade wave reports how many hosts stayed **pinned**
because physical-passthrough tenants cannot live-migrate
(:class:`~repro.hv.passthrough.MigrationNotSupported`), while DVH
virtual-passthrough tenants evacuate cleanly.

Fleets this size stay tractable through quiescent hosts: an idle
:class:`~repro.cluster.host.ClusterHost` contributes zero engine
events, no fast-forward fingerprint weight, and no built stack until a
tenant or migration touches it — with byte-identical control-plane
accounting either way.
"""

from repro.dc.controlplane import ControlPlane, WaveReport
from repro.dc.fabric import SpineLeafFabric
from repro.dc.fleet import Datacenter
from repro.dc.runner import (
    BUILTIN_SPECS,
    dc_cell,
    load_spec,
    run_dc,
    run_sweep,
)
from repro.dc.spec import (
    ControlSpec,
    DCSpec,
    FaultWindowSpec,
    HostSpec,
    RebalanceSpec,
    SpecError,
    TenantMixSpec,
    TopologySpec,
    TrafficSpec,
    UpgradeSpec,
)

__all__ = [
    "ControlPlane",
    "WaveReport",
    "SpineLeafFabric",
    "Datacenter",
    "BUILTIN_SPECS",
    "dc_cell",
    "load_spec",
    "run_dc",
    "run_sweep",
    "ControlSpec",
    "DCSpec",
    "FaultWindowSpec",
    "HostSpec",
    "RebalanceSpec",
    "SpecError",
    "TenantMixSpec",
    "TopologySpec",
    "TrafficSpec",
    "UpgradeSpec",
]
