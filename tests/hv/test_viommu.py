"""Tests for the virtual IOMMU device."""

from repro.core.features import DvhFeatures
from repro.hv.stack import StackConfig, build_stack
from repro.hv.viommu import VirtualIommu
from repro.hw.ept import Perm
from repro.hw.pci import CapabilityId, PciDevice


def make_stack():
    stack = build_stack(StackConfig(levels=2, io_model="virtio"))
    stack.settle()
    return stack


def test_viommu_is_a_pci_device():
    viommu = VirtualIommu("viommu", provider_hv=0)
    assert viommu.has_capability(CapabilityId.PCIE)
    assert viommu.vendor_id == 0x8086  # looks like Intel VT-d


def test_program_traps_and_builds_both_tables():
    """A guest hypervisor programming a mapping traps to the provider,
    which updates the guest-visible table and the composed shadow."""
    stack = make_stack()
    ctx = stack.ctx(0).chain_vcpu(1)  # the L1 hypervisor's context
    viommu = VirtualIommu("viommu-L1", provider_hv=0)
    stack.vms[0].bus.plug(viommu)
    device = PciDevice("assigned", 0x1AF4, 0x1000)
    # Give the L1 VM an EPT run so composition has something to chew;
    # the programmed target 0x20 sits inside it.
    stack.vms[0].ept.map(0x1E, 0x97, Perm.RW, npages=4)
    before = stack.metrics.copy()

    def program():
        yield from viommu.program(ctx, device, iova_pfn=0x10, target_pfn=0x20)

    stack.sim.run_process(program())
    assert stack.metrics.diff(before).total_exits() >= 1  # the register write
    assert viommu.guest_tables[device.bdf].translate(0x10) == 0x20
    # Shadow composed through the L1 EPT: straight to host pfn.
    assert viommu.shadow_tables[device.bdf].translate(0x10) == 0x99
    # One single-page extent in each table.
    assert viommu.guest_tables[device.bdf].extents() == [(0x10, 1, 0x20, Perm.RW)]
    assert viommu.shadow_tables[device.bdf].extents() == [(0x10, 1, 0x99, Perm.RW)]


def test_program_without_ept_entry_falls_back_to_identity():
    stack = make_stack()
    ctx = stack.ctx(0).chain_vcpu(1)
    viommu = VirtualIommu("v", provider_hv=0)
    stack.vms[0].bus.plug(viommu)
    device = PciDevice("d", 0x1AF4, 0x1000)

    def program():
        yield from viommu.program(ctx, device, iova_pfn=0x10, target_pfn=0x7777)

    stack.sim.run_process(program())
    assert viommu.shadow_tables[device.bdf].translate(0x10) == 0x7777
    assert viommu.shadow_tables[device.bdf].extents() == [(0x10, 1, 0x7777, Perm.RW)]


def test_shadow_for_unknown_device():
    viommu = VirtualIommu("v", provider_hv=0)
    device = PciDevice("d", 0, 0)
    assert viommu.shadow_for(device) is None


def test_posted_interrupt_flag_reflects_fig8_step():
    no_pi = VirtualIommu("a", provider_hv=0, posted_interrupts=False)
    with_pi = VirtualIommu("b", provider_hv=0, posted_interrupts=True)
    assert not no_pi.posted_interrupts
    assert with_pi.posted_interrupts
