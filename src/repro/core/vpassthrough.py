"""Virtual-passthrough (§3.1, Figures 2c/3b, recursive form §3.5/Figure 6).

Assign a *virtual* I/O device — provided in software by the host
hypervisor — to a nested VM:

1. L0 provides the virtio device plus a virtual IOMMU to the L1 guest
   hypervisor (a VM that "thinks it has sufficient hardware support for
   the passthrough model").
2. Each intervening guest hypervisor runs its ordinary passthrough
   framework: unbind the device, program the (virtual) IOMMU it was given
   with mappings from the next level's physical addresses, and — except
   for the last one — expose a virtual IOMMU of its own upward.
3. The net result is a shadow table from leaf-VM physical addresses to
   host addresses, held by the L1 virtual IOMMU (Figure 6); the host's
   vhost backend uses it for every DMA.

No physical IOMMU or SR-IOV is required, the device remains fully
interposable (so migration keeps working, §3.6), and the nested VM needs
nothing beyond the normal virtio driver.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.hw.devices.virtio import VirtioDevice
from repro.hw.ept import PageTable, Perm
from repro.hv.passthrough import dma_pool_pfns, resolve_many_through_chain
from repro.hv.viommu import VirtualIommu

__all__ = [
    "VirtualPassthroughAssignment",
    "assign_virtual_device",
    "populate_chain_epts",
    "exit_owner",
]


def exit_owner(vcpu, exit_) -> int:
    """The owner of an ``MMIO`` exit: a device provided by level *p* is
    emulated at level *p* even when accessed from a deeper nested VM
    (§3.1) — the doorbell write short-circuits straight to the provider.
    Devices with no provider (plain emulated MMIO) belong to the VM's own
    manager."""
    device = exit_.info.get("device")
    provider = getattr(device, "provider_level", None)
    if provider is not None:
        return provider
    return vcpu.level - 1


class VirtualPassthroughAssignment:
    """The result of assigning an L0-provided device to a nested VM."""

    def __init__(
        self,
        device: VirtioDevice,
        leaf_vm,
        viommus: List[VirtualIommu],
        shadow: PageTable,
    ) -> None:
        self.device = device
        self.leaf_vm = leaf_vm
        #: One virtual IOMMU per intervening hypervisor (L1..Ln-1's views).
        self.viommus = viommus
        #: The composed leaf-gpa -> host table (held by the L1 vIOMMU).
        self.shadow = shadow

    def translate(self, addr: int, write: bool = False) -> int:
        """Host-side DMA translation through the shadow table."""
        return self.shadow.translate_addr(
            addr, Perm.W if write else Perm.R
        )


def assign_virtual_device(
    machine,
    device: VirtioDevice,
    leaf_vm,
    posted_interrupts: bool = False,
    pfns: Optional[Sequence[range]] = None,
) -> VirtualPassthroughAssignment:
    """Perform the virtual-passthrough assignment (setup time).

    ``device`` must be provided by L0 (``provider_level == 0``) — that is
    the defining property of virtual-passthrough: the device the nested VM
    ends up driving is the host hypervisor's.
    """
    if device.provider_level != 0:
        raise ValueError(
            "virtual-passthrough assigns devices provided by the host "
            f"hypervisor; {device.name} is provided by "
            f"L{device.provider_level}"
        )
    l0 = machine.host_hv
    costs = machine.costs
    if pfns is None:
        pfns = dma_pool_pfns()

    # Ensure the chain's EPTs cover the DMA pool (the guest OS allocated
    # these pages long ago; faults would have populated them on demand).
    populate_chain_epts(leaf_vm, pfns)

    # One virtual IOMMU per hypervisor between L0 and the leaf.
    viommus: List[VirtualIommu] = []
    vm = leaf_vm.manager.vm  # VM the leaf's manager runs in (None for L1 mgr)
    hv = leaf_vm.manager
    while hv is not None and hv.level >= 1:
        viommu = VirtualIommu(
            f"viommu-L{hv.level}",
            provider_hv=hv.level - 1,
            posted_interrupts=posted_interrupts,
        )
        if hv.vm is not None:
            hv.vm.bus.plug(viommu)
        viommus.append(viommu)
        hv = hv.vm.manager if hv.vm is not None else None
    viommus.reverse()  # innermost last

    # Each guest hypervisor programs the vIOMMU it was given with the
    # next level's mappings; the composed result is the shadow table.
    shadow = PageTable(name=f"vp-shadow:{device.name}")
    for pfn, npages, host_pfn, _perm in resolve_many_through_chain(leaf_vm, pfns):
        shadow.map(pfn, host_pfn, Perm.RW, npages)
    pages = sum(len(run) for run in pfns)
    machine.metrics.charge(
        "setup", costs.shadow_iommu_map_page * (leaf_vm.level - 1) * pages
    )
    if viommus:
        viommus[0].shadow_tables[device.bdf] = shadow

    # The last-level hypervisor assigns the device: BAR stays *trapping*
    # (the device is virtual — doorbells must reach L0), the device shows
    # up on the leaf's bus, and the leaf just binds its virtio driver.
    device.assigned_to = leaf_vm
    if device not in list(leaf_vm.bus.enumerate()):
        leaf_vm.bus.devices.append(device)
    return VirtualPassthroughAssignment(device, leaf_vm, viommus, shadow)


def populate_chain_epts(leaf_vm, pfns: Sequence[range]) -> None:
    """Map pool pages at every level: level-m pfn p maps to parent pfn
    p + m * stride (distinct per level, so translation bugs surface).
    Each page's target depends only on the page and the level, so
    mapping the same pages again changes nothing."""
    stride = 1 << 8
    vm = leaf_vm
    while vm is not None:
        # What leaf pfn p looks like at this level: p + offset.
        offset = stride * sum(range(vm.level + 1, leaf_vm.level + 1))
        for run in pfns:
            pfn = run.start + offset
            vm.ept.map(pfn, pfn + vm.level * stride, Perm.RW, len(run))
        vm = vm.manager.vm if vm.manager is not None else None
