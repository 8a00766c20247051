"""Virtual idle (§3.4).

Uses *existing* architectural support in a new way: the host hypervisor
keeps trapping the HLT instruction, but every guest hypervisor clears
HLT-exiting in the VMCS it keeps for its nested VM.  A nested VM executing
HLT then traps only to L0 (which can see, via the guest hypervisor's
configuration in the VMCS, that no forwarding is needed), so entering and
leaving low-power mode costs the same as for a non-nested VM.

Unlike disabling HLT traps everywhere or polling in the guest, physical
CPU cycles are not wasted: the host really halts the CPU until an event
arrives.

Policy: a guest hypervisor only engages virtual idle when it has no other
runnable nested VMs (§3.4's last paragraph) — otherwise it keeps the trap
so it can schedule a sibling.
"""

from __future__ import annotations

from typing import List

__all__ = [
    "enable_virtual_idle",
    "update_virtual_idle_policy",
    "exit_owner",
]


def exit_owner(vcpu, exit_) -> int:
    """The owner of an ``HLT`` exit: L0 handles the HLT only if *no*
    intervening hypervisor kept HLT-exiting set in its vmcs12; otherwise
    the innermost one that traps HLT owns it (§3.4)."""
    for m in range(vcpu.level - 1, 0, -1):
        if vcpu.chain_vcpu(m + 1).vmcs.controls.hlt_exiting:
            return m
    return 0


def enable_virtual_idle(hv_stack: List, leaf_vm) -> bool:
    """Clear HLT-exiting in every intervening hypervisor's vmcs12 along
    the chain (subject to the §3.4 scheduling policy)."""
    enabled_all = True
    vm = leaf_vm
    while vm is not None and vm.level >= 2:
        manager = vm.manager
        if manager.other_runnable_guests == 0:
            for vcpu in vm.vcpus:
                vcpu.vmcs.controls.hlt_exiting = False
        else:
            enabled_all = False
        vm = manager.vm
    return enabled_all


def update_virtual_idle_policy(hv, leaf_vm) -> None:
    """Re-evaluate the policy when the hypervisor's run queue changes:
    engage virtual idle only with no other runnable nested VMs."""
    engage = hv.other_runnable_guests == 0
    for vcpu in leaf_vm.vcpus:
        vcpu.vmcs.controls.hlt_exiting = not engage
