"""Tests for virtual-passthrough (§3.1, recursive §3.5)."""

import pytest

from repro.core.features import DvhFeatures
from repro.core.vpassthrough import assign_virtual_device, populate_chain_epts
from repro.hv.stack import StackConfig, build_stack
from repro.hw.devices.virtio import VirtioDevice
from repro.hw.ept import Perm


def make(levels=2, io="vp", dvh=None):
    stack = build_stack(
        StackConfig(levels=levels, io_model=io, dvh=dvh or DvhFeatures.vp_only())
    )
    return stack


def test_only_l0_devices_assignable():
    """The defining property: the device is provided by the host."""
    stack = build_stack(StackConfig(levels=2, io_model="virtio"))
    l1_device = VirtioDevice("l1-dev", provider_level=1)
    with pytest.raises(ValueError, match="host"):
        assign_virtual_device(stack.machine, l1_device, stack.leaf_vm)


def test_device_visible_on_leaf_bus():
    stack = make()
    assert stack.net.device in list(stack.leaf_vm.bus.enumerate())
    assert stack.net.device.assigned_to is stack.leaf_vm


def test_doorbell_still_traps():
    """Unlike physical passthrough, the BAR must keep trapping — the
    device is software in L0."""
    stack = make()
    assert stack.leaf_vm.traps_mmio(stack.net.device.notify_addr)


def test_viommu_per_intervening_hypervisor():
    l2 = make(levels=2)
    l3 = make(levels=3)
    assert len(l2.vp_assignment.viommus) == 1
    assert len(l3.vp_assignment.viommus) == 2


def test_shadow_table_composition_is_exact():
    """The shadow table equals the step-by-step EPT chain walk for every
    mapped pool page (Figure 6)."""
    stack = make(levels=3)
    assignment = stack.vp_assignment
    from repro.hv.passthrough import resolve_through_chain

    checked = 0
    for pfn, npages, target_pfn, perm in assignment.shadow.extents():
        assert perm == Perm.RW
        for i in range(npages):
            assert target_pfn + i == resolve_through_chain(stack.leaf_vm, pfn + i)
            checked += 1
    assert checked == len(assignment.shadow) > 0


def test_shadow_translate_enforces_permissions():
    stack = make()
    from repro.hv.virtio_backend import RX_POOL_BASE

    assert stack.vp_assignment.translate(RX_POOL_BASE, write=True) > 0
    with pytest.raises(Exception):
        stack.vp_assignment.translate(0xDEAD_BEEF_000)


def test_no_physical_iommu_involved():
    """§3.1: virtual-passthrough requires no physical IOMMU — the
    device has no domain in the hardware IOMMU."""
    stack = make()
    assert stack.machine.iommu.domain_of(stack.net.device) is None


def test_nested_vm_unmodified():
    """Transparency: the leaf uses a standard virtio driver bound to a
    standard PCI device; nothing DVH-specific in the nested VM."""
    stack = make()
    from repro.hw.pci import CapabilityId

    dev = stack.net.device
    assert dev.has_capability(CapabilityId.MSIX)
    assert dev.vendor_id == 0x1AF4  # ordinary virtio vendor id
    assert type(stack.net).__name__ == "VirtioDriver"


def test_populate_chain_epts_idempotent():
    stack = build_stack(StackConfig(levels=2, io_model="virtio"))
    populate_chain_epts(stack.leaf_vm, [range(0x100, 0x102)])
    size_before = len(stack.leaf_vm.ept)
    before = [vm.ept.extents() for vm in stack.vms]
    populate_chain_epts(stack.leaf_vm, [range(0x100, 0x102)])
    assert len(stack.leaf_vm.ept) == size_before
    assert [vm.ept.extents() for vm in stack.vms] == before


def test_scalability_many_devices_one_host():
    """§3.1: 'easily scalable ... for as many virtual I/O devices as
    desired; no SR-IOV hardware support is required'."""
    stack = build_stack(StackConfig(levels=2, io_model="virtio"))
    for i in range(16):
        dev = VirtioDevice(f"extra{i}", provider_level=0)
        stack.machine.bus.plug(dev)
        assignment = assign_virtual_device(
            stack.machine, dev, stack.leaf_vm, pfns=[range(0x2000 + i, 0x2001 + i)]
        )
        assert assignment.shadow is not None
