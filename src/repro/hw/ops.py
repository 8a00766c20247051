"""Privileged-operation and exit-reason taxonomy.

Guest code (guest OSes, guest hypervisors, device drivers) interacts with
the simulated hardware by executing :class:`Op` operations through its
execution context.  Whether an operation traps, and who handles the exit,
is decided by the VMX machinery in :mod:`repro.hw.cpu` and the host
hypervisor in :mod:`repro.hv.kvm` — the enum itself carries no policy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["Op", "ExitReason", "Exit", "NUM_EXIT_REASONS"]


class Op(enum.Enum):
    """Operations guest code can execute."""

    # Members are singletons compared by identity, so identity hashing
    # keeps dict and set lookups correct without Enum's Python-level
    # name hash.  A set of members then iterates in address order: no
    # output may depend on that order.
    __hash__ = object.__hash__

    # VMX instructions (only meaningful for hypervisor code)
    VMREAD = "vmread"
    VMWRITE = "vmwrite"
    VMPTRLD = "vmptrld"
    VMRESUME = "vmresume"
    VMLAUNCH = "vmlaunch"
    INVEPT = "invept"

    # Generic privileged instructions
    VMCALL = "vmcall"  # hypercall
    CPUID = "cpuid"
    HLT = "hlt"
    RDMSR = "rdmsr"
    WRMSR = "wrmsr"

    # Memory-mapped / port I/O (device access)
    MMIO_READ = "mmio_read"
    MMIO_WRITE = "mmio_write"
    PIO_WRITE = "pio_write"


class ExitReason(enum.Enum):
    """VM-exit reasons (subset of the Intel SDM list that matters here)."""

    __hash__ = object.__hash__  # identity, as for Op

    VMCALL = "vmcall"
    CPUID = "cpuid"
    HLT = "hlt"
    MSR_READ = "msr_read"
    MSR_WRITE = "msr_write"
    APIC_TIMER = "apic_timer"  # WRMSR IA32_TSC_DEADLINE
    APIC_ICR = "apic_icr"  # WRMSR x2APIC ICR
    EPT_VIOLATION = "ept_violation"
    MMIO = "mmio"  # EPT violation on a device BAR
    IO_INSTRUCTION = "io"
    VMX_INSTRUCTION = "vmx"  # guest hypervisor executed a VMX instruction
    EXTERNAL_INTERRUPT = "external_interrupt"
    PREEMPTION_TIMER = "preemption_timer"


# Dense per-reason index for the exit tables in
# repro.hv.dispatch / repro.hv.profiles: table[reason.index] replaces a
# dict lookup on the hot exit path.
for _index, _reason in enumerate(ExitReason):
    _reason.index = _index
NUM_EXIT_REASONS = len(ExitReason)


#: Well-known MSR indices (x2APIC registers live in MSR space).
MSR_TSC_DEADLINE = 0x6E0
MSR_X2APIC_ICR = 0x830
MSR_X2APIC_EOI = 0x80B


@dataclass(slots=True)
class Exit:
    """One VM exit: the reason plus decoded qualification info."""

    reason: ExitReason
    op: Op
    #: Virtualization level of the VM the exit came from (1 = L1 guest).
    from_level: int
    #: Decoded operands: msr index, mmio address, written value, etc.
    info: Dict[str, Any] = field(default_factory=dict)
    #: The vCPU object that took the exit (set by the CPU machinery).
    vcpu: Optional[Any] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Exit {self.reason.value} L{self.from_level}>"
