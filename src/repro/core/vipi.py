"""Virtual IPIs (§3.3).

Two pieces of virtual hardware: a per-vCPU virtual ICR (so a nested VM's
ICR writes are handled by L0 directly) and the **virtual CPU interrupt
mapping table** (VCIMT) — a per-VM structure in guest-hypervisor memory
mapping nested-VM vCPU numbers to posted-interrupt descriptors, registered
with the host through the VCIMTAR register.  The host uses it to find the
destination of a nested VM's IPI without guest-hypervisor intervention
(Figure 5).

Send-side emulation lives in :mod:`repro.hv.kvm` (the ``APIC_ICR``
handlers and ``_vcimt_lookup``); routing is this module's
:func:`exit_owner`, the ``APIC_ICR`` entry of the dispatch routing
table.  This module is otherwise the guest-hypervisor-side setup:
build the table in its own memory and program the VCIMTAR.
"""

from __future__ import annotations

from typing import List

from repro.core.features import recursive_dvh_owner
from repro.hw.vmx import VCIMT_ENTRY_SIZE, VmcsField

__all__ = ["setup_virtual_ipis", "DEFAULT_VCIMT_BASE", "exit_owner"]


def _enabled(controls) -> bool:
    return controls.virtual_ipi_enable


def exit_owner(vcpu, exit_) -> int:
    """The owner of an ``APIC_ICR`` exit: posted-interrupt *notification*
    requests always belong to the sender's own manager (Figure 4 step 4),
    everything else follows the §3.5 walk over the virtual-IPI enable
    bit."""
    if exit_.info.get("notify_only"):
        # A guest hypervisor asking the CPU to send a posted-interrupt
        # notification on its behalf: its own manager emulates that.
        return vcpu.level - 1
    return recursive_dvh_owner(vcpu, _enabled)

#: Guest-physical address guest hypervisors conventionally place the
#: table at in this reproduction.
DEFAULT_VCIMT_BASE = 0x7F00_0000


def setup_virtual_ipis(hv_stack: List, leaf_vm, table_base: int = DEFAULT_VCIMT_BASE) -> bool:
    """Configure virtual IPIs for a (possibly deeply) nested VM.

    The leaf VM's manager builds the VCIMT in its own memory: one entry
    per leaf vCPU pointing at that vCPU's posted-interrupt descriptor.
    Intervening hypervisors translate and re-register the information
    level by level (§3.5); the net effect visible to L0 is a valid
    VCIMTAR in the merged VMCS.  Returns whether the feature is enabled
    end-to-end.
    """
    manager = leaf_vm.manager
    if manager.level == 0:
        return False  # not nested: virtual IPIs are a nested-VM feature
    # Check the whole chain advertises the capability (AND rule, §3.5).
    vm = leaf_vm
    while vm is not None and vm.level >= 2:
        if not vm.manager.capability.virtual_ipi:
            return False
        vm = vm.manager.vm
    # The manager writes the table into its own memory.  Entries map the
    # destination vCPU number to the PI descriptor (which embeds the
    # physical-CPU destination), exactly Figure 5's layout.
    manager_vm = manager.vm
    for vcpu in leaf_vm.vcpus:
        manager_vm.memory.write(
            table_base + VCIMT_ENTRY_SIZE * vcpu.index, vcpu
        )
    # Enable bit + table address in each leaf vCPU's vmcs12, and on every
    # intervening level (recursive enablement).
    vm = leaf_vm
    while vm is not None and vm.level >= 2:
        for vcpu in vm.vcpus:
            vcpu.vmcs.controls.virtual_ipi_enable = True
            if vm is leaf_vm:
                vcpu.vmcs.write(VmcsField.VCIMTAR, table_base)
        vm = vm.manager.vm
    leaf_vm.vcimtar = table_base
    return True
