"""Virtual IOMMU: the emulated IOMMU a hypervisor exposes to its guest.

Virtual-passthrough (§3.1) requires the host hypervisor to provide "both a
virtual I/O device to assign as well as a virtual IOMMU": the guest
hypervisor programs the virtual IOMMU with mappings from nested-VM
physical addresses to its own guest-physical addresses, and the provider
composes those with its own tables into a *shadow* table that translates
straight from nested-VM addresses to provider addresses — for recursive
virtual-passthrough, only the L1 virtual IOMMU's shadow table is used at
DMA time (Figure 6).

The ``posted_interrupts`` flag models the paper's addition of posted
interrupt support to QEMU's virtual IOMMU (§4: "We also implemented posted
interrupt support in the virtual IOMMU ... which is missing in QEMU").
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.hw.ept import PageTable, Perm
from repro.hw.ops import Op
from repro.hw.pci import Capability, CapabilityId, PciDevice

__all__ = ["VirtualIommu"]


class VirtualIommu(PciDevice):
    """An emulated (VT-d-like) IOMMU provided to a guest hypervisor."""

    def __init__(
        self,
        name: str,
        provider_hv,
        posted_interrupts: bool = False,
    ) -> None:
        super().__init__(name, 0x8086, 0x9D3E, bar_sizes=[0x1000])
        self.add_capability(Capability(CapabilityId.PCIE, {}))
        self.provider_hv = provider_hv
        #: Whether this vIOMMU can post device interrupts directly into
        #: the VMs behind it (Figure 8's "+ posted interrupts" step).
        self.posted_interrupts = posted_interrupts
        #: Per assigned device: guest-programmed table (device-visible
        #: IOVA -> the programming hypervisor's guest-physical).
        self.guest_tables: dict = {}
        #: Per assigned device: shadow table (IOVA -> provider-physical),
        #: maintained by the provider as the guest programs mappings.
        self.shadow_tables: dict = {}

    def program(
        self,
        ctx,
        device: PciDevice,
        iova_pfn: int,
        target_pfn: int,
        perm: Perm = Perm.RW,
    ) -> Generator:
        """The guest hypervisor (running as ``ctx``) programs one mapping.

        The register write traps to the provider, which updates both the
        guest-visible table and the composed shadow table (building the
        combined mappings the same way shadow page tables are built).
        """
        yield from ctx.execute(
            Op.MMIO_WRITE,
            addr=(self.bars[0].base or 0) + 0x40,
            value=(iova_pfn, target_pfn),
            device=self,
        )
        table = self.guest_tables.setdefault(
            device.bdf, PageTable(name=f"{self.name}/g{device.bdf}")
        )
        table.map(iova_pfn, target_pfn, perm)
        shadow = self.shadow_tables.setdefault(
            device.bdf, PageTable(name=f"{self.name}/s{device.bdf}")
        )
        # Compose: the provider resolves the guest hypervisor's target
        # through the EPT of the VM the guest hypervisor runs in.
        provider_vm = getattr(ctx, "vm", None)
        if provider_vm is not None:
            resolved = provider_vm.ept.lookup(target_pfn)
            if resolved is not None:
                target_pfn = resolved[0]
        shadow.map(iova_pfn, target_pfn, perm)
        return None

    def shadow_for(self, device: PciDevice) -> Optional[PageTable]:
        return self.shadow_tables.get(device.bdf)

    def mmio_write(self, addr: int, value) -> None:
        # Register writes are handled in program(); the trap cost is what
        # matters here.
        return

    def mmio_read(self, addr: int):
        return 0
