"""DVH feature flags and capability plumbing.

The paper introduces four DVH mechanisms (§3.1-3.4) plus posted-interrupt
support in the virtual IOMMU (evaluated as a separate increment in
Figure 8).  A :class:`DvhFeatures` value selects which mechanisms the host
hypervisor provides; guest hypervisors *discover* them through VMX
capability bits and *enable* them through VM-execution-control bits
(§3.2-3.3), which is what makes the recursive AND-combining of §3.5 work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, List, Tuple

__all__ = [
    "DvhFeatures",
    "DVH_MECHANISMS",
    "DVH_PRESETS",
    "negotiate",
    "fallback_io_model",
    "recursive_dvh_owner",
]

#: Every negotiable DVH mechanism, in capability-bit order.
DVH_MECHANISMS = (
    "virtual_passthrough",
    "viommu_posted_interrupts",
    "virtual_ipi",
    "virtual_timer",
    "virtual_idle",
    "vtimer_direct_delivery",
)

#: Mechanisms that only work when another mechanism negotiated too
#: (posted vIOMMU interrupts target virtually-passed-through devices;
#: direct timer delivery needs the host-emulated virtual timer).
_DEPENDS_ON = {
    "viommu_posted_interrupts": "virtual_passthrough",
    "vtimer_direct_delivery": "virtual_timer",
}


@dataclass(frozen=True)
class DvhFeatures:
    """Which DVH mechanisms the host hypervisor provides."""

    #: §3.1: assign host-provided virtual I/O devices to nested VMs.
    virtual_passthrough: bool = False
    #: Figure 8 "+ posted interrupts": the virtual IOMMU supports posted
    #: interrupts, so the host can deliver virtual-device interrupts
    #: directly to nested VMs.
    viommu_posted_interrupts: bool = False
    #: §3.3: virtual ICR + virtual CPU interrupt mapping table.
    virtual_ipi: bool = False
    #: §3.2: per-vCPU virtual LAPIC timer emulated by the host.
    virtual_timer: bool = False
    #: §3.4: guest hypervisors stop trapping HLT; only the host does.
    virtual_idle: bool = False
    #: §3.2's further optimization: deliver virtual-timer interrupts to
    #: the nested VM directly from the host using posted interrupts (the
    #: host knows the vector the nested VM programmed).  Without it, the
    #: expiry is delivered through the guest hypervisor like a regular
    #: emulated timer's.
    vtimer_direct_delivery: bool = True

    # ------------------------------------------------------------------
    # The configurations used throughout the paper's evaluation
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "DvhFeatures":
        """Vanilla KVM (no DVH)."""
        return cls()

    @classmethod
    def vp_only(cls) -> "DvhFeatures":
        """DVH-VP: only virtual-passthrough, without posted-interrupt
        support in the virtual IOMMU — the paper's conservative
        comparison point against device passthrough (§4)."""
        return cls(virtual_passthrough=True)

    @classmethod
    def full(cls) -> "DvhFeatures":
        """All DVH mechanisms (the paper's "DVH" configuration)."""
        return cls(
            virtual_passthrough=True,
            viommu_posted_interrupts=True,
            virtual_ipi=True,
            virtual_timer=True,
            virtual_idle=True,
            vtimer_direct_delivery=True,
        )

    def with_(self, **overrides: bool) -> "DvhFeatures":
        """Copy with the given mechanisms toggled (Figure 8 increments)."""
        return replace(self, **overrides)

    @property
    def any_enabled(self) -> bool:
        return any(
            (
                self.virtual_passthrough,
                self.viommu_posted_interrupts,
                self.virtual_ipi,
                self.virtual_timer,
                self.virtual_idle,
            )
        )


#: The paper's three evaluated configurations by name, as the CLI's
#: ``--dvh`` flag and a scenario spec's ``dvh`` field spell them.
DVH_PRESETS = {
    "none": DvhFeatures.none,
    "vp": DvhFeatures.vp_only,
    "full": DvhFeatures.full,
}


# ----------------------------------------------------------------------
# Capability negotiation with graceful degradation (see repro.faults)
# ----------------------------------------------------------------------
def negotiate(
    requested: DvhFeatures, faulted: Iterable[str] = ()
) -> Tuple[DvhFeatures, List[str]]:
    """Intersect the requested DVH mechanisms with what capability
    discovery actually reports.

    ``faulted`` names mechanisms whose VMX capability bits read as
    unavailable (a flaky or hostile host, or an injected capability
    fault).  Returns the degraded feature set plus the list of requested
    mechanisms that were dropped — dropping a mechanism also drops
    anything depending on it, mirroring the recursive AND-combining of
    §3.5: a level only offers what every level below it offers.
    """
    faulted = set(faulted)
    unknown = faulted - set(DVH_MECHANISMS)
    if unknown:
        raise ValueError(f"unknown DVH mechanisms: {sorted(unknown)}")
    dropped: List[str] = []
    granted = requested
    for mech in DVH_MECHANISMS:
        if not getattr(granted, mech):
            continue
        dep = _DEPENDS_ON.get(mech)
        if mech in faulted or (dep is not None and not getattr(granted, dep)):
            granted = granted.with_(**{mech: False})
            dropped.append(mech)
    return granted, dropped


def fallback_io_model(io_model: str, features: DvhFeatures) -> str:
    """The I/O model a stack can actually run after negotiation:
    virtual-passthrough falls back to the paravirtual virtio cascade
    when the ``virtual_passthrough`` capability did not negotiate."""
    if io_model == "vp" and not features.virtual_passthrough:
        return "virtio"
    return io_model


def recursive_dvh_owner(vcpu: Any, enabled: Callable[[Any], bool]) -> int:
    """The §3.5 recursive-enable walk, generic over the enable bit.

    DVH handles the exit at L0 only if every intervening hypervisor set
    the enable bit for its guest (the bits AND together).  Otherwise
    forwarding descends from the innermost level: the first hypervisor
    (from the VM's own manager downward) whose enable bit for its guest
    is clear must emulate.  ``enabled`` reads the feature's enable bit
    off an :class:`repro.hw.vmx.ExecControl` — a direct attribute access
    supplied by the feature module, not a string-matched name.
    """
    for m in range(vcpu.level, 1, -1):
        if not enabled(vcpu.chain_vcpu(m).vmcs.controls):
            return m - 1
    return 0
