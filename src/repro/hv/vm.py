"""Virtual machines and virtual CPUs.

A :class:`VCpu` is the execution context for code inside a VM at any
virtualization level.  Its :meth:`VCpu.execute` is where the
architecture's single-level virtualization support lives: every trapping
operation, from any level, exits to the *host* hypervisor first (paper
§2); the host then handles it directly or forwards it to the owning guest
hypervisor, which is where exit multiplication comes from.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from repro.hv.dispatch import ExitContext
from repro.hw.cpu import ExecutionContext, PhysicalCpu
from repro.hw.ept import PageTable
from repro.hw.lapic import Lapic, TIMER_VECTOR
from repro.hw.mem import MemorySpace
from repro.hw.ops import (
    MSR_TSC_DEADLINE,
    MSR_X2APIC_ICR,
    Exit,
    ExitReason,
    Op,
)
from repro.hw.pci import PciBus, PciDevice
from repro.hw.posted import PiDescriptor
from repro.hw.vmx import Vmcs, VmcsField

__all__ = ["VirtualMachine", "VCpu"]

#: The exit reason each trapping op raises.  WRMSR is decoded further by
#: MSR index (:data:`_WRMSR_EXIT_REASON`); VMREAD/VMWRITE that VMCS
#: shadowing absorbs never get here.
_OP_EXIT_REASON = {
    Op.VMREAD: ExitReason.VMX_INSTRUCTION,
    Op.VMWRITE: ExitReason.VMX_INSTRUCTION,
    Op.VMPTRLD: ExitReason.VMX_INSTRUCTION,
    Op.VMRESUME: ExitReason.VMX_INSTRUCTION,
    Op.VMLAUNCH: ExitReason.VMX_INSTRUCTION,
    Op.INVEPT: ExitReason.VMX_INSTRUCTION,
    Op.VMCALL: ExitReason.VMCALL,
    Op.CPUID: ExitReason.CPUID,
    Op.HLT: ExitReason.HLT,
    Op.RDMSR: ExitReason.MSR_READ,
    Op.WRMSR: ExitReason.MSR_WRITE,
    Op.MMIO_READ: ExitReason.MMIO,
    Op.MMIO_WRITE: ExitReason.MMIO,
    Op.PIO_WRITE: ExitReason.IO_INSTRUCTION,
}

#: x2APIC registers live in MSR space: writes to them exit with their
#: own reasons; any other WRMSR is a plain MSR write.
_WRMSR_EXIT_REASON = {
    MSR_TSC_DEADLINE: ExitReason.APIC_TIMER,
    MSR_X2APIC_ICR: ExitReason.APIC_ICR,
}


def _exit_reason(op: Op, info: dict) -> ExitReason:
    if op is Op.WRMSR:
        return _WRMSR_EXIT_REASON.get(info.get("msr"), ExitReason.MSR_WRITE)
    reason = _OP_EXIT_REASON.get(op)
    if reason is None:
        raise ValueError(f"unhandled op {op}")
    return reason


class VirtualMachine:
    """A VM at virtualization level ``level`` (1 = runs on the host)."""

    def __init__(
        self,
        name: str,
        level: int,
        machine,
        manager,
        memory_bytes: int,
    ) -> None:
        if level < 1:
            raise ValueError("VM level starts at 1")
        self.name = name
        self.level = level
        self.machine = machine
        #: The hypervisor that manages (created) this VM; its level is
        #: ``level - 1``.
        self.manager = manager
        self.memory = MemorySpace(memory_bytes, name=f"{name}-ram")
        #: Guest-visible PCI bus (populated by the manager).
        self.bus = PciBus(f"{name}-pci")
        #: Guest-physical -> parent-physical page table, maintained by the
        #: manager (for level 1: by L0, it IS the hardware EPT).
        self.ept = PageTable(name=f"{name}-ept")
        self.vcpus: List["VCpu"] = []
        #: MMIO ranges mapped straight through (passthrough BARs): accesses
        #: do not trap.
        self._no_trap_ranges: List[Tuple[int, int]] = []
        #: Virtual CPU interrupt mapping table (§3.3): guest-physical base
        #: address programmed by the hypervisor *inside* this VM when it
        #: enables virtual IPIs for its nested VM.
        self.vcimtar: Optional[int] = None
        #: Set when a physical device is passed through to this VM or a VM
        #: nested inside it: migration becomes impossible (§1, §3.6).
        self.hardware_coupled = False

    # ------------------------------------------------------------------
    # vCPUs
    # ------------------------------------------------------------------
    def add_vcpu(self, pcpu: PhysicalCpu, parent: Optional["VCpu"]) -> "VCpu":
        vcpu = VCpu(self, len(self.vcpus), pcpu, parent)
        self.vcpus.append(vcpu)
        return vcpu

    # ------------------------------------------------------------------
    # MMIO trapping
    # ------------------------------------------------------------------
    def map_mmio_no_trap(self, base: int, size: int) -> None:
        """Map a BAR window straight through (device passthrough)."""
        self._no_trap_ranges.append((base, base + size))

    def traps_mmio(self, addr: int) -> bool:
        for lo, hi in self._no_trap_ranges:
            if lo <= addr < hi:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VM {self.name} L{self.level} vcpus={len(self.vcpus)}>"


class VCpu(ExecutionContext):
    """A virtual CPU, pinned 1:1 to a physical CPU (paper §4 methodology).

    ``parent`` links the nesting chain: an L2 vCPU's parent is the L1 vCPU
    it runs on, whose parent is None (L1 vCPUs run on physical CPUs).
    """

    def __init__(
        self,
        vm: VirtualMachine,
        index: int,
        pcpu: PhysicalCpu,
        parent: Optional["VCpu"],
    ) -> None:
        self.vm = vm
        self.index = index
        self.level = vm.level
        self.name = f"{vm.name}.vcpu{index}"
        self.pcpu = pcpu
        self.parent = parent
        self.lapic = Lapic(apic_id=index)
        self.pi_desc = PiDescriptor(self.name)
        #: The VMCS the *manager* keeps for this vCPU: vmcs01 when the
        #: manager is L0, a vmcs12 kept in guest memory otherwise.
        self.vmcs = Vmcs(owner_level=vm.level - 1, name=f"{self.name}.vmcs")
        #: Cycles of pending interrupt-injection work this vCPU must absorb
        #: (guest-hypervisor intervention for interrupts that could not be
        #: posted directly; drained at the next wait).
        self.pending_exit_work = 0
        #: The merged VMCS L0 actually runs this vCPU with (only for
        #: nested vCPUs; for L1 vCPUs it is the same object as .vmcs).
        self.merged_vmcs = self.vmcs if vm.level == 1 else Vmcs(0, f"{self.name}.vmcs0n")
        if parent is not None and parent.level != vm.level - 1:
            raise ValueError("parent vCPU must be one level down")
        if vm.level > 1 and parent is None:
            raise ValueError("nested vCPU needs a parent")
        #: Machine metrics, bound once (the machine never swaps it); keeps
        #: the per-exit charge path off the vm.machine property chain.
        self.metrics = vm.machine.metrics
        #: The nesting chain [vcpu_L1, ..., self]; parent links are fixed
        #: at construction, so the chain is precomputed.
        self._chain: Tuple["VCpu", ...] = (
            (self,) if parent is None else parent._chain + (self,)
        )

    # ------------------------------------------------------------------
    # Shortcuts
    # ------------------------------------------------------------------
    @property
    def machine(self):
        return self.vm.machine

    @property
    def memory(self):
        """The guest-physical address space this vCPU addresses."""
        return self.vm.memory

    @property
    def host_hv(self):
        return self.vm.machine.host_hv

    @property
    def costs(self):
        return self.vm.machine.costs

    def chain(self) -> List["VCpu"]:
        """vCPUs from L1 down to this one: [vcpu_L1, ..., self]."""
        return list(self._chain)

    def chain_vcpu(self, level: int) -> "VCpu":
        """The vCPU of the level-``level`` VM on this chain."""
        ch = self._chain
        if not 1 <= level <= len(ch):
            raise ValueError(f"no level-{level} vCPU on chain of {self.name}")
        return ch[level - 1]

    def total_tsc_offset(self) -> int:
        """Sum of VMCS TSC offsets from the host down to this vCPU
        (guest TSC = host TSC + total offset)."""
        return sum(v.vmcs.read(VmcsField.TSC_OFFSET) for v in self._chain)

    # ------------------------------------------------------------------
    # ExecutionContext: compute / memory / time
    # ------------------------------------------------------------------
    def compute(self, cycles: int) -> Generator:
        """Unprivileged guest work runs at native speed (hardware
        virtualization), so it just consumes time.

        Guest-hypervisor handler code computes while a trap frame is
        live on this vCPU; its cycles then belong to that frame's span.
        """
        ectx = self.exit_context
        if ectx is None:
            self.metrics.charge("guest_work", cycles)
        else:
            ectx.charge("guest_work", cycles)
        yield cycles

    def mem_write(self, addr: int, size: int) -> None:
        self.vm.memory.write_range(addr, size)

    def read_tsc(self) -> int:
        """RDTSC does not trap: hardware applies the merged offset."""
        return self.pcpu.tsc + self.total_tsc_offset()

    # ------------------------------------------------------------------
    # ExecutionContext: privileged operations
    # ------------------------------------------------------------------
    def execute(self, op: Op, count: int = 1, **info: Any) -> Generator:
        """Execute a privileged operation ``count`` times.

        VMREAD/VMWRITE on fields covered by VMCS shadowing are satisfied
        from the shadow VMCS without any exit; MMIO to passthrough-mapped
        windows goes straight to the device.  Everything else takes a full
        hardware exit to L0 (single-level virtualization support, §2).

        Returns the generator to drive with ``yield from``: for a single
        trapping op that is L0's dispatch generator itself, so each yield
        of the trap resumes one generator frame fewer.
        """
        # --- VMCS shadowing fast path -------------------------------
        if op is Op.VMREAD or op is Op.VMWRITE:
            vmcs: Optional[Vmcs] = info.get("vmcs")
            fieldname: Optional[VmcsField] = info.get("field")
            if (
                vmcs is not None
                and fieldname is not None
                and vmcs.is_shadowed(fieldname)
            ):
                return self._shadowed_access(op, count, vmcs, fieldname, info)

        # --- Passthrough MMIO fast path -----------------------------
        if op is Op.MMIO_WRITE and not self.vm.traps_mmio(info.get("addr", 0)):
            return self._passthrough_mmio(count, info)

        # --- Full trap path -----------------------------------------
        # The trap site: each trapping operation gets a trap frame
        # (ExitContext) here and carries it, unmodified, through L0
        # dispatch, forwarding, and guest-hypervisor re-entry.  A frame
        # created while a handler's frame is live on this vCPU is a child
        # of the same exit chain.
        reason = _exit_reason(op, info)
        if count == 1:
            machine = self.vm.machine
            exit_ = Exit(reason, op, self.level, info, self)
            ectx = ExitContext(exit_, self, self.exit_context, machine)
            return machine.host_hv.dispatch_exit(self, exit_, ectx)
        return self._trap_each(op, reason, count, info)

    def _trap_each(
        self, op: Op, reason: ExitReason, count: int, info: dict
    ) -> Generator:
        """``count`` trapping ops, one simulated exit each.

        Each copy gets its own trap frame and full dispatch, with one
        exception: once L0 has handled a copy of a level-1 VMREAD/VMWRITE
        run directly, the host hypervisor applies as many of the
        remaining identical copies as it may in one step
        (:meth:`KvmHypervisor.repeatable_l0_vmx` /
        :meth:`~KvmHypervisor.repeat_l0_vmx`).  The simulated exits,
        counters and cycles are those of ``count`` dispatches; only the
        host work is shared (``docs/performance.md``, "Repeated L0
        exits").
        """
        result = None
        machine = self.vm.machine
        host = machine.host_hv
        level = self.level
        repeatable = level == 1 and (op is Op.VMREAD or op is Op.VMWRITE)
        left = count
        while left:
            exit_ = Exit(reason, op, level, info, self)
            ectx = ExitContext(exit_, self, self.exit_context, machine)
            result = yield from host.dispatch_exit(self, exit_, ectx)
            left -= 1
            if left and repeatable and ectx.handler == "l0":
                k = host.repeatable_l0_vmx(left)
                if k:
                    result = yield from host.repeat_l0_vmx(self, exit_, k)
                    left -= k
        return result

    def _shadowed_access(
        self, op: Op, count: int, vmcs: Vmcs, fieldname: VmcsField, info: dict
    ) -> Generator:
        yield self.costs.vmcs_shadowed_access * count
        if op is Op.VMWRITE:
            vmcs.write(fieldname, info.get("value"))
            return None
        return vmcs.read(fieldname)

    def _passthrough_mmio(self, count: int, info: dict) -> Generator:
        yield self.costs.ring_access * count
        device: Optional[PciDevice] = info.get("device")
        if device is not None:
            for _ in range(count):
                device.mmio_write(info.get("addr", 0), info.get("value"))
        return None

    def _make_exit(self, op: Op, info: dict) -> Exit:
        return Exit(
            reason=_exit_reason(op, info), op=op, from_level=self.level,
            info=info, vcpu=self,
        )

    # ------------------------------------------------------------------
    # ExecutionContext: timers / IPIs / idle
    # ------------------------------------------------------------------
    def program_timer(self, deadline_tsc: int, vector: int = TIMER_VECTOR) -> Generator:
        self.lapic.arm_timer(deadline_tsc, vector)
        return (
            yield from self.execute(
                Op.WRMSR, msr=MSR_TSC_DEADLINE, deadline=deadline_tsc, vector=vector
            )
        )

    def send_ipi(self, dest_index: int, vector: int) -> Generator:
        return (
            yield from self.execute(
                Op.WRMSR, msr=MSR_X2APIC_ICR, dest=dest_index, vector=vector
            )
        )

    def wait_for_interrupt(self) -> Generator:
        """HLT until an interrupt is pending, then ack it.

        Pending posted interrupts are synced first (hardware does this on
        VM entry), so a wait with work already posted returns immediately.
        """
        self.pi_desc.sync_to(self.lapic)
        while not self.lapic.has_pending():
            yield from self.execute(Op.HLT)
            self.pi_desc.sync_to(self.lapic)
        if self.pending_exit_work:
            # Interrupts delivered without posted-interrupt support made
            # this vCPU exit so the guest hypervisor could inject them.
            work, self.pending_exit_work = self.pending_exit_work, 0
            self.metrics.charge("inject_exits", work)
            yield work
        return self.lapic.ack()

    def irq_work(self) -> Generator:
        """Guest IRQ entry/dispatch/EOI.  EOI is virtualized by APICv and
        does not trap."""
        costs = self.costs
        self.metrics.charge("guest_work", costs.guest_irq_entry)
        yield costs.guest_irq_entry + costs.eoi_virtualized
        self.lapic.eoi()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VCpu {self.name} pcpu={self.pcpu.idx}>"
