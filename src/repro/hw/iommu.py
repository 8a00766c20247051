"""IOMMU: DMA address translation.

The physical IOMMU (Intel VT-d in the paper's testbed) gives each assigned
device a *domain* — a page table translating device-visible I/O virtual
addresses (IOVAs) to host-physical addresses.  VT-d posted interrupts are
modelled at delivery: an assigned VF's driver posts its vector straight
into the target vCPU's posted-interrupt descriptor
(:class:`repro.hw.posted.PiDescriptor`).

The same class also backs the *virtual* IOMMU the host hypervisor exposes
to guest hypervisors for (recursive) virtual-passthrough (§3.1, §3.5);
the vIOMMU wrapper with trap-and-shadow semantics lives in
:mod:`repro.hv.viommu`.
"""

from __future__ import annotations

from typing import Dict

from repro.hw.ept import EptViolation, PageTable, Perm
from repro.hw.pci import PciDevice

__all__ = ["Iommu", "IommuFault"]


class IommuFault(Exception):
    """A DMA access failed translation (unmapped or bad permission)."""


class Iommu:
    """DMA translation for a set of devices."""

    def __init__(self, name: str = "iommu") -> None:
        self.name = name
        #: Per-device DMA domains (device bdf -> page table).
        self.domains: Dict[int, PageTable] = {}
        #: Fault-injection hook (see repro.faults): called as
        #: ``hook(device, iova, write)``; returning True forces the
        #: translation to fault even though a mapping exists.
        self.fault_hook = None

    def attach(self, device: PciDevice) -> PageTable:
        """Create (or return) the DMA domain for a device."""
        table = self.domains.get(device.bdf)
        if table is None:
            table = PageTable(name=f"{self.name}/dom{device.bdf}")
            self.domains[device.bdf] = table
        return table

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
