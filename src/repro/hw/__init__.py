"""Simulated x86 hardware: CPUs, VMX, EPT, APIC, IOMMU, PCI, devices."""

from repro.hw.cpu import ExecutionContext, NativeContext, PhysicalCpu
from repro.hw.ept import EptViolation, PageTable, Perm, compose
from repro.hw.iommu import Iommu, IommuFault
from repro.hw.lapic import Lapic, TIMER_VECTOR
from repro.hw.machine import Machine
from repro.hw.mem import PAGE_SIZE, DirtyLog, MemorySpace
from repro.hw.ops import Exit, ExitReason, Op
from repro.hw.pci import Bar, Capability, CapabilityId, PciBus, PciDevice
from repro.hw.posted import PiDescriptor
from repro.hw.vmx import SHADOWED_FIELDS, ExecControl, Vmcs, VmcsField, VmxCapability

__all__ = [
    "ExecutionContext",
    "NativeContext",
    "PhysicalCpu",
    "EptViolation",
    "PageTable",
    "Perm",
    "compose",
    "Iommu",
    "IommuFault",
    "Lapic",
    "TIMER_VECTOR",
    "Machine",
    "PAGE_SIZE",
    "DirtyLog",
    "MemorySpace",
    "Exit",
    "ExitReason",
    "Op",
    "Bar",
    "Capability",
    "CapabilityId",
    "PciBus",
    "PciDevice",
    "PiDescriptor",
    "SHADOWED_FIELDS",
    "ExecControl",
    "Vmcs",
    "VmcsField",
    "VmxCapability",
]
