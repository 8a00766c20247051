"""IOMMU: DMA address translation and interrupt remapping/posting.

The physical IOMMU (Intel VT-d in the paper's testbed) gives each assigned
device a *domain* — a page table translating device-visible I/O virtual
addresses (IOVAs) to host-physical addresses — plus an interrupt-remapping
table whose entries can be in *posted* mode, delivering device interrupts
straight into a running vCPU through a posted-interrupt descriptor.

The same class also backs the *virtual* IOMMU the host hypervisor exposes
to guest hypervisors for (recursive) virtual-passthrough (§3.1, §3.5);
the vIOMMU wrapper with trap-and-shadow semantics lives in
:mod:`repro.hv.viommu`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.hw.ept import EptViolation, PageTable, Perm
from repro.hw.pci import PciDevice
from repro.hw.posted import PiDescriptor

__all__ = ["Iommu", "IommuFault", "IrteMode", "Irte"]


class IommuFault(Exception):
    """A DMA access failed translation (unmapped or bad permission)."""


@dataclass
class Irte:
    """Interrupt-remapping table entry."""

    #: "remapped": deliver to a physical LAPIC vector; "posted": deliver
    #: through a posted-interrupt descriptor (VT-d posted interrupts).
    mode: str
    vector: int
    pi_descriptor: Optional[PiDescriptor] = None
    dest_apic_id: Optional[int] = None


class IrteMode:
    REMAPPED = "remapped"
    POSTED = "posted"


class Iommu:
    """DMA translation + interrupt remapping for a set of devices."""

    def __init__(self, name: str = "iommu") -> None:
        self.name = name
        #: Per-device DMA domains (device bdf -> page table).
        self.domains: Dict[int, PageTable] = {}
        #: Interrupt remapping: (device bdf, msi index) -> entry.
        self.irt: Dict[tuple, Irte] = {}
        #: Fault-injection hook (see repro.faults): called as
        #: ``hook(device, iova, write)``; returning True forces the
        #: translation to fault even though a mapping exists.
        self.fault_hook = None

    # ------------------------------------------------------------------
    # Domains
    # ------------------------------------------------------------------
    def attach(self, device: PciDevice) -> PageTable:
        """Create (or return) the DMA domain for a device."""
        table = self.domains.get(device.bdf)
        if table is None:
            table = PageTable(name=f"{self.name}/dom{device.bdf}")
            self.domains[device.bdf] = table
        return table

    def detach(self, device: PciDevice) -> None:
        self.domains.pop(device.bdf, None)
        for key in [k for k in self.irt if k[0] == device.bdf]:
            del self.irt[key]

    def translate(self, device: PciDevice, iova: int, write: bool = False) -> int:
        """Translate a device DMA address; raises IommuFault on miss."""
        if self.fault_hook is not None and self.fault_hook(device, iova, write):
            raise IommuFault(
                f"{self.name}: injected translation fault for "
                f"{device.name} @ {iova:#x}"
            )
        table = self.domains.get(device.bdf)
        if table is None:
            raise IommuFault(f"{self.name}: device {device.name} has no domain")
        try:
            return table.translate_addr(iova, Perm.W if write else Perm.R)
        except EptViolation as exc:
            raise IommuFault(f"{self.name}: {device.name}: {exc}") from exc

    # ------------------------------------------------------------------
    # Interrupt remapping
    # ------------------------------------------------------------------
    def set_irte(self, device: PciDevice, msi_index: int, entry: Irte) -> None:
        self.irt[(device.bdf, msi_index)] = entry
