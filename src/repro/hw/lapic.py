"""Local APIC model: pending-interrupt state, TSC-deadline timer, ICR.

Each vCPU (and each physical CPU) owns a :class:`Lapic`.  Interrupt
*routing* policy (who traps, who posts) lives in the hypervisor layer;
the LAPIC just models architectural state: the IRR/ISR vector registers,
the one-shot TSC-deadline timer, and EOI.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

__all__ = ["Lapic", "TIMER_VECTOR", "IPI_RESCHEDULE_VECTOR", "VIRTIO_VECTOR_BASE"]

#: Conventional vector assignments used by the simulated guests.
TIMER_VECTOR = 0xEC
IPI_RESCHEDULE_VECTOR = 0xFD
IPI_CALL_FUNCTION_VECTOR = 0xFB
VIRTIO_VECTOR_BASE = 0x40
POSTED_INTR_NOTIFICATION_VECTOR = 0xF2


class Lapic:
    """Architectural local-APIC state for one (v/p)CPU."""

    def __init__(self, apic_id: int) -> None:
        self.apic_id = apic_id
        #: Interrupt request register: pending vectors.
        self.irr: Set[int] = set()
        #: In-service register: vectors being serviced (until EOI).
        self.isr: List[int] = []
        #: Armed TSC-deadline (in the owner's TSC domain), or None.
        self.timer_deadline: Optional[int] = None
        self.timer_vector: int = TIMER_VECTOR
        #: Observers called on IRR becoming non-empty (wakeups).
        self._wake_callbacks: List[Callable[[], None]] = []
        #: Fault-injection hook (see repro.faults): called with the
        #: vector being latched; returning True swallows the interrupt
        #: (a dropped interrupt).  Spurious interrupts are injected by
        #: calling :meth:`set_irr` directly.
        self.fault_hook: Optional[Callable[[int], bool]] = None

    # ------------------------------------------------------------------
    # Interrupt state
    # ------------------------------------------------------------------
    def set_irr(self, vector: int) -> None:
        """Latch a pending interrupt."""
        if not 0 <= vector <= 0xFF:
            raise ValueError(f"bad vector {vector}")
        if self.fault_hook is not None and self.fault_hook(vector):
            return  # interrupt dropped in flight
        self.irr.add(vector)
        for cb in list(self._wake_callbacks):
            cb()

    def has_pending(self) -> bool:
        return bool(self.irr)

    def ack(self) -> Optional[int]:
        """Deliver the highest-priority pending vector (IRR -> ISR)."""
        if not self.irr:
            return None
        vector = max(self.irr)
        self.irr.discard(vector)
        self.isr.append(vector)
        return vector

    def eoi(self) -> Optional[int]:
        """End-of-interrupt for the most recent in-service vector."""
        if self.isr:
            return self.isr.pop()
        return None

    def on_wake(self, cb: Callable[[], None]) -> None:
        """Register a wake observer (hypervisor halt/wake machinery)."""
        self._wake_callbacks.append(cb)

    # ------------------------------------------------------------------
    # Timer
    # ------------------------------------------------------------------
    def arm_timer(self, deadline_tsc: int, vector: int = TIMER_VECTOR) -> None:
        self.timer_deadline = deadline_tsc
        self.timer_vector = vector

    def disarm_timer(self) -> None:
        self.timer_deadline = None

    def fire_timer(self) -> None:
        """The armed deadline elapsed: latch the timer vector."""
        self.timer_deadline = None
        self.set_irr(self.timer_vector)
