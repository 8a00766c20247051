"""Posted-interrupt descriptors (Intel APICv / VT-d posted interrupts).

A PI descriptor lets an agent (another CPU, a device, or — with DVH — the
host hypervisor on behalf of a nested VM) deliver an interrupt to a running
vCPU without causing a VM exit: set the vector bit in the PIR, set the ON
bit, and send the notification vector to the physical CPU running the
target vCPU; hardware then syncs the PIR into the virtual APIC's IRR
(paper Sections 3.2-3.3, Figures 4-5).
"""

from __future__ import annotations

from typing import Optional, Set

from repro.hw.lapic import Lapic, POSTED_INTR_NOTIFICATION_VECTOR

__all__ = ["PiDescriptor"]


class PiDescriptor:
    """One posted-interrupt descriptor (per vCPU)."""

    def __init__(self, owner_name: str = "") -> None:
        self.owner_name = owner_name
        #: Posted-interrupt requests (vector bitmap).
        self.pir: Set[int] = set()
        #: Outstanding notification bit.
        self.on = False
        #: Suppress notification (vCPU not running; deliver lazily).
        self.sn = False
        self.notification_vector = POSTED_INTR_NOTIFICATION_VECTOR
        #: Physical CPU currently running the target vCPU (None = not
        #: running).  Updated by the scheduler / VM entry-exit code.
        self.dest_pcpu: Optional[int] = None

    def post(self, vector: int) -> bool:
        """Record a pending vector.  Returns True if a notification IPI is
        needed (ON transitioned from clear to set and not suppressed)."""
        if not 0 <= vector <= 0xFF:
            raise ValueError(f"bad vector {vector}")
        self.pir.add(vector)
        if self.on or self.sn:
            return False
        self.on = True
        return True

    def sync_to(self, lapic: Lapic) -> int:
        """Hardware sync on notification / VM entry: PIR -> IRR.
        Returns the number of vectors moved."""
        moved = len(self.pir)
        for vector in self.pir:
            lapic.set_irr(vector)
        self.pir.clear()
        self.on = False
        return moved

    @property
    def has_pending(self) -> bool:
        return bool(self.pir)
