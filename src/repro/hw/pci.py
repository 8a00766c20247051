"""PCI modelling: config space, BARs, capability lists, and buses.

Virtual-passthrough (paper §3.1) depends on virtual I/O devices *conforming
to the physical device interface specification* — PCI — so that guest
hypervisors' existing passthrough frameworks can assign them.  The DVH
migration support (§3.6) is a new PCI *capability* ("the migration
capability"), which rides on the standard capability-list mechanism
modelled here.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "CapabilityId",
    "Capability",
    "Bar",
    "PciDevice",
    "PciBus",
]


class CapabilityId(enum.Enum):
    """PCI capability IDs (standard ones plus the paper's new one)."""

    MSI = 0x05
    MSIX = 0x11
    PCIE = 0x10
    SRIOV = 0x20  # (actually an extended capability; flattened here)
    #: The paper's new capability: lets a guest hypervisor ask the host
    #: hypervisor to capture virtual-device state and log DMA-dirtied
    #: pages for nested-VM migration (§3.6).
    MIGRATION = 0x42


@dataclass
class Capability:
    """One entry in a device's capability list."""

    cap_id: CapabilityId
    registers: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Bar:
    """A base address register: an MMIO window of the device.

    ``base`` is assigned in the owner's address space when the device is
    plugged into a bus.  Whether an access through a mapping traps is a
    property of how the *mapping* was established (EPT), not of the BAR.
    """

    index: int
    size: int
    base: Optional[int] = None

    def contains(self, addr: int) -> bool:
        return self.base is not None and self.base <= addr < self.base + self.size


class PciDevice:
    """Base class for every PCI device in the simulation.

    Subclasses: physical NIC/SSD, SR-IOV virtual functions, virtio
    paravirtual devices, and the virtual IOMMU's register window.
    """

    _bdf_counter = itertools.count(0)

    def __init__(
        self,
        name: str,
        vendor_id: int,
        device_id: int,
        bar_sizes: Optional[List[int]] = None,
    ) -> None:
        self.name = name
        self.vendor_id = vendor_id
        self.device_id = device_id
        self.bdf = next(PciDevice._bdf_counter)
        self.bars: List[Bar] = [
            Bar(index=i, size=size) for i, size in enumerate(bar_sizes or [0x1000])
        ]
        self.capabilities: List[Capability] = []
        #: Set when a hypervisor has assigned this device to a VM.
        self.assigned_to: Optional[Any] = None
        #: The driver currently bound (guest driver or hypervisor stub).
        self.bound_driver: Optional[Any] = None

    # ------------------------------------------------------------------
    # Capability list
    # ------------------------------------------------------------------
    def add_capability(self, cap: Capability) -> None:
        if self.find_capability(cap.cap_id) is not None:
            raise ValueError(f"{self.name}: duplicate capability {cap.cap_id}")
        self.capabilities.append(cap)

    def find_capability(self, cap_id: CapabilityId) -> Optional[Capability]:
        """Walk the capability list (as system software would)."""
        for cap in self.capabilities:
            if cap.cap_id == cap_id:
                return cap
        return None

    def bar_of(self, addr: int) -> Optional[Bar]:
        for bar in self.bars:
            if bar.contains(addr):
                return bar
        return None


class PciBus:
    """A PCI bus: address allocation and enumeration."""

    def __init__(self, name: str, mmio_base: int = 0xE000_0000) -> None:
        self.name = name
        self.devices: List[PciDevice] = []
        self._next_mmio = mmio_base

    def plug(self, device: PciDevice) -> PciDevice:
        """Attach a device and assign its BAR windows."""
        for bar in device.bars:
            bar.base = self._next_mmio
            self._next_mmio += max(bar.size, 0x1000)
        self.devices.append(device)
        return device

    def unplug(self, device: PciDevice) -> None:
        self.devices.remove(device)

    def enumerate(self) -> Iterator[PciDevice]:
        """Devices in discovery order."""
        return iter(list(self.devices))

    def device_at(self, addr: int) -> Optional[PciDevice]:
        """Which device's BAR covers this MMIO address, if any."""
        for dev in self.devices:
            if dev.bar_of(addr) is not None:
                return dev
        return None

    def find(self, name: str) -> Optional[PciDevice]:
        for dev in self.devices:
            if dev.name == name:
                return dev
        return None
