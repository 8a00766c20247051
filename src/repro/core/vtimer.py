"""Virtual timers (§3.2).

A per-vCPU virtual LAPIC timer provided in software by the host
hypervisor, appearing to guest hypervisors as an additional hardware
timer capability: one discovery bit in the VMX capability register, one
enable bit in the VM-execution controls.  When every intervening
hypervisor sets the enable bit for its guest (the §3.5 AND rule), a
nested VM's timer programming exits go straight to L0, which emulates the
timer with an hrtimer using the *combined* TSC offset of all levels.

The emulation lives in :mod:`repro.hv.kvm` (the ``APIC_TIMER``
handlers); routing is this module's :func:`exit_owner`, the
``APIC_TIMER`` entry of the dispatch routing table.  This module is
otherwise the guest-hypervisor-side configuration: discovery,
enablement, and save/restore on nested VM switch.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.features import recursive_dvh_owner
from repro.hw.vmx import VmcsField

__all__ = [
    "enable_virtual_timers",
    "save_virtual_timer",
    "restore_virtual_timer",
    "exit_owner",
]


def _enabled(controls) -> bool:
    return controls.virtual_timer_enable


def exit_owner(vcpu, exit_) -> int:
    """The owner of an ``APIC_TIMER`` exit: the §3.5 recursive-enable
    walk over the virtual-timer enable bit (a direct control-field read,
    not a string-matched attribute name)."""
    return recursive_dvh_owner(vcpu, _enabled)


def enable_virtual_timers(hv_stack: List, leaf_vm) -> bool:
    """Each guest hypervisor on the chain discovers the capability from
    the level below and sets the enable bit for its guest's vCPUs.

    Returns whether the feature ended up enabled end-to-end (it is not if
    any hypervisor on the chain lacks the capability — §3.5: the bits
    combine with AND).
    """
    enabled_all = True
    vm = leaf_vm
    # Walk from the leaf's manager down to L1's manager (L0 provides).
    while vm is not None and vm.level >= 2:
        manager = vm.manager  # hypervisor at vm.level - 1
        if manager.capability.virtual_timer:
            for vcpu in vm.vcpus:
                vcpu.vmcs.controls.virtual_timer_enable = True
        else:
            enabled_all = False
        vm = manager.vm
    return enabled_all


def save_virtual_timer(vcpu) -> Optional[int]:
    """Guest hypervisor saves a nested VM's virtual-timer state when
    switching away from it (§3.2): read the armed deadline."""
    deadline = vcpu.lapic.timer_deadline
    vcpu.vmcs.write(VmcsField.VIRTUAL_TIMER_DEADLINE, deadline)
    return deadline


def restore_virtual_timer(vcpu) -> None:
    """Restore a previously saved virtual-timer deadline when resuming a
    nested VM."""
    deadline = vcpu.vmcs.read(VmcsField.VIRTUAL_TIMER_DEADLINE)
    if deadline:
        vcpu.lapic.arm_timer(deadline, vcpu.lapic.timer_vector)
