"""Physical CPUs and the execution-context interface guest code runs on.

Workloads and guest-hypervisor handlers are written against
:class:`ExecutionContext`; the two implementations are
:class:`NativeContext` (bare-metal, for the paper's native baseline — no
operation ever traps) and :class:`repro.hv.vm.VCpu` (a virtual CPU at any
virtualization level, where privileged operations take the full trap path
through the host hypervisor).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.hw.lapic import Lapic, TIMER_VECTOR
from repro.hw.ops import Op

__all__ = ["PhysicalCpu", "ExecutionContext", "NativeContext"]


class PhysicalCpu:
    """One physical CPU: timebase, LAPIC, and halt/wake bookkeeping."""

    def __init__(self, idx: int, sim, tsc_boot_offset: int = 0) -> None:
        self.idx = idx
        self.sim = sim
        self.lapic = Lapic(apic_id=idx)
        self.tsc_boot_offset = tsc_boot_offset
        #: Event the CPU's thread blocks on while halted (None = running).
        self._halt_event = None
        #: Set when a wake arrived while the CPU was not yet halted (an
        #: interrupt racing the idle chain's descent): the next block()
        #: returns immediately instead of losing the wakeup, mirroring
        #: hardware's interrupt-window check before HLT completes.
        self._wake_pending = False
        #: The leaf vCPU currently executing on this CPU (None when the
        #: CPU runs host code or is idle).  Used by posted-interrupt
        #: delivery to decide between exit-less delivery and wakeup.
        self.running_vcpu: Optional[Any] = None

    @property
    def tsc(self) -> int:
        """Host timestamp counter."""
        return self.sim.now + self.tsc_boot_offset

    @property
    def halted(self) -> bool:
        return self._halt_event is not None

    def block(self):
        """Enter halt; returns the event to yield on.

        If a wake raced the descent into halt, returns an
        already-triggered event (no sleep)."""
        if self._halt_event is not None:
            raise RuntimeError(f"pcpu{self.idx} already halted")
        ev = self.sim.event(f"pcpu{self.idx}.halt")
        if self._wake_pending:
            self._wake_pending = False
            ev.trigger()
            return ev
        self._halt_event = ev
        return ev

    def wake(self) -> bool:
        """Leave halt; returns True if the CPU was actually halted.
        A wake of a running CPU is latched so the next halt attempt
        returns immediately (see block)."""
        ev = self._halt_event
        if ev is None:
            self._wake_pending = True
            return False
        self._halt_event = None
        ev.trigger()
        return True


class ExecutionContext:
    """What guest code sees: compute, privileged ops, timers, IPIs, idle.

    :class:`NativeContext` and :class:`repro.hv.vm.VCpu` provide
    ``compute``, ``execute``, ``read_tsc``, ``program_timer``,
    ``send_ipi``, ``wait_for_interrupt`` and ``irq_work``; those that
    consume simulated time are generators to be driven with
    ``yield from``.
    """

    #: Virtualization level: 0 = bare metal, 1 = L1 guest, 2 = nested...
    level: int = 0
    name: str = "ctx"
    lapic: Lapic
    #: The live trap frame (repro.hv.dispatch.ExitContext) whose handler
    #: this context is currently executing, or None outside any dispatch.
    #: Set/restored by the forwarding path around guest-hypervisor handler
    #: invocation; privileged operations executed while it is set trap
    #: into *child* frames of the same exit chain (exit multiplication).
    exit_context: Optional[Any] = None


class NativeContext(ExecutionContext):
    """Bare-metal execution for the native baseline configuration."""

    level = 0

    #: Cycles for a native privileged register write (no trap).
    NATIVE_OP_COST = 40

    def __init__(self, machine, cpu: PhysicalCpu, index: int, name: str = "") -> None:
        self.machine = machine
        self.cpu = cpu
        self.index = index
        self.name = name or f"native{index}"
        self.lapic = cpu.lapic
        self.memory = machine.memory
        #: Armed LAPIC-timer handle; cancelled on reprogram so stale
        #: arms never block a fast-forward window.
        self._timer_handle = None

    @property
    def pcpu(self) -> PhysicalCpu:
        """Alias so workload engines can treat native contexts and vCPUs
        uniformly."""
        return self.cpu

    # ------------------------------------------------------------------
    def compute(self, cycles: int) -> Generator:
        self.machine.metrics.charge("guest_work", cycles)
        yield cycles

    def execute(self, op: Op, count: int = 1, **info: Any) -> Generator:
        # Nothing traps on bare metal.
        yield self.NATIVE_OP_COST * count

    def mem_write(self, addr: int, size: int) -> None:
        self.memory.write_range(addr, size)

    def read_tsc(self) -> int:
        return self.cpu.tsc

    def program_timer(self, deadline_tsc: int, vector: int = TIMER_VECTOR) -> Generator:
        self.lapic.arm_timer(deadline_tsc, vector)
        delay = max(0, deadline_tsc - self.cpu.tsc)
        lapic = self.lapic
        cpu = self.cpu
        stale = self._timer_handle
        if stale is not None:
            stale.cancel()

        def fire() -> None:
            if lapic.timer_deadline is not None and lapic.timer_deadline <= cpu.tsc:
                lapic.fire_timer()
                cpu.wake()

        sim = self.machine.sim
        self._timer_handle = sim.timer_at(sim.now + delay, fire)
        yield self.NATIVE_OP_COST

    def send_ipi(self, dest_index: int, vector: int) -> Generator:
        yield self.machine.costs.physical_ipi
        self.machine.deliver_native_interrupt(dest_index, vector)

    def wait_for_interrupt(self) -> Generator:
        while not self.lapic.has_pending():
            ev = self.cpu.block()
            yield ev
        # Native wake path: idle-exit latency is small but nonzero.
        yield self.machine.costs.halt_wake_sched // 4
        return self.lapic.ack()

    def irq_work(self) -> Generator:
        self.machine.metrics.charge("guest_work", self.machine.costs.guest_irq_entry)
        yield self.machine.costs.guest_irq_entry
        self.lapic.eoi()
