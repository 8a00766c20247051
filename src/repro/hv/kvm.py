"""The KVM-like hypervisor: exit dispatch, forwarding, emulation, DVH.

One class plays both roles of the paper's terminology:

* the **host hypervisor** (level 0, ``L0``) owns the hardware, takes every
  exit first (single-level architectural virtualization support, §2), and
  either handles it directly or *forwards* it to the owning guest
  hypervisor;
* a **guest hypervisor** (level >= 1) runs inside a VM; its exit handlers
  execute as guest code, so every privileged operation they perform traps
  back to L0 (or, for deeper nesting, to an even longer chain).  This is
  the mechanism — not a formula — that produces exit multiplication.

The dispatch machinery itself lives in :mod:`repro.hv.dispatch`: every
hardware exit arrives here wrapped in an
:class:`~repro.hv.dispatch.ExitContext` (the trap frame created at the
trap site in :meth:`repro.hv.vm.VCpu.execute`), routing consults the
:class:`~repro.hv.dispatch.ExitHandlerRegistry` (where each DVH feature
registered its ownership claim), and the reason-specific emulation is
performed by the module-level handler functions below, registered per
``(ExitReason, profile)``.  Hypervisor flavours are declarative
:class:`repro.hv.profiles.HypervisorProfile` data — Xen is a profile, not
method overrides.

The four DVH mechanisms short-circuit routing through their ownership
claims: when the VM-execution controls of every intervening level carry
the DVH enable bit (§3.5's AND rule), exits that would have been
forwarded are handled by L0 directly.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, Generator, List, Optional, Tuple

from repro.core.features import DvhFeatures
from repro.hv.dispatch import DEFAULT_REGISTRY, ExitContext, ExitHandlerRegistry
from repro.hv.profiles import KVM_PROFILE, HypervisorProfile
from repro.hv.vm import VCpu, VirtualMachine
from repro.hw.lapic import TIMER_VECTOR
from repro.hw.ops import (
    MSR_TSC_DEADLINE,
    MSR_X2APIC_ICR,
    Exit,
    ExitReason,
    Op,
)
from repro.hw.vmx import (
    VCIMT_ENTRY_SIZE,
    ExecControl,
    Vmcs,
    VmcsField,
    VmxCapability,
)

__all__ = ["KvmHypervisor"]


class KvmHypervisor:
    """KVM at any virtualization level (level 0 = the host hypervisor)."""

    #: The declarative flavour of this hypervisor (subclasses swap the
    #: profile, nothing else).
    profile: ClassVar[HypervisorProfile] = KVM_PROFILE
    #: The registry exits are routed and dispatched through.
    registry: ClassVar[ExitHandlerRegistry] = DEFAULT_REGISTRY

    def __init__(
        self,
        machine,
        level: int = 0,
        vm: Optional[VirtualMachine] = None,
        dvh: Optional[DvhFeatures] = None,
        name: str = "",
        profile: Optional[HypervisorProfile] = None,
    ) -> None:
        if (level == 0) != (vm is None):
            raise ValueError("host hypervisor has no VM; guest hypervisors need one")
        if profile is not None:
            # Flavour as data: an instance-level profile (e.g. XEN_PROFILE)
            # shadows the class default; no subclass needed.
            self.profile = profile
        self.machine = machine
        #: Machine metrics, bound once (the machine never swaps it); the
        #: dispatch path charges it on every exit.
        self.metrics = machine.metrics
        self.level = level
        self.vm = vm
        self.name = name or (f"{self.profile.name}-L{level}" if level else "kvm-host")
        #: DVH mechanisms this hypervisor *provides* to its guests.  Only
        #: meaningful at L0 in the paper's design; guest hypervisors
        #: re-expose what they discover (recursive DVH, §3.5).
        self.dvh = dvh if dvh is not None else DvhFeatures.none()
        #: What this hypervisor discovers about the platform it runs on
        #: (set by the level below / the stack builder).
        self.capability = VmxCapability()
        self.guests: List[VirtualMachine] = []
        #: Per-vCPU armed hrtimer handles (cancelled on reprogram, so
        #: stale arms leave only inert heap entries behind and never
        #: block a fast-forward window).
        self._timer_handles: Dict[VCpu, Any] = {}
        #: Virtio backends: device -> backend object (set by stack builder).
        self.backends: Dict[Any, Any] = {}
        #: §3.4 policy: number of *other* runnable nested VMs; virtual
        #: idle is only engaged when this is zero.
        self.other_runnable_guests = 0
        #: Timer-emulation backend (§3.2 names both options): "hrtimer"
        #: (Linux high-resolution timers — what the paper's KVM
        #: implementation uses) or "preemption" (the VMX-Preemption
        #: Timer: expiry arrives as a VM exit on the running vCPU).
        self.timer_backend = "hrtimer"
        #: Optional run queue over sibling nested VMs (§3.4 scheduling;
        #: see repro.hv.scheduler).
        self.scheduler = None

    # ------------------------------------------------------------------
    # Shortcuts
    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.machine.sim

    @property
    def costs(self):
        return self.machine.costs

    def _hv_at(self, level: int) -> "KvmHypervisor":
        return self.machine.hv_stack[level]

    # ==================================================================
    # VM lifecycle
    # ==================================================================
    def create_vm(self, name: str, memory_bytes: int) -> VirtualMachine:
        """Create a VM one level above this hypervisor."""
        vm = VirtualMachine(
            name=name,
            level=self.level + 1,
            machine=self.machine,
            manager=self,
            memory_bytes=memory_bytes,
        )
        self.guests.append(vm)
        return vm

    # ==================================================================
    # L0: exit dispatch
    # ==================================================================
    def dispatch_exit(
        self, vcpu: VCpu, exit_: Exit, ectx: Optional[ExitContext] = None
    ) -> Generator:
        """Entry point for every hardware VM exit (L0 only, §2).

        ``ectx`` is the trap frame created at the trap site; direct
        callers (tests, softirq paths) may omit it and get a fresh root
        frame.  The frame travels the whole dispatch unmodified — the
        span it carries closes exactly when L0 re-enters the guest.
        """
        assert self.level == 0, "only the host hypervisor takes hardware exits"
        if ectx is None:
            ectx = ExitContext(exit_, vcpu, None, self.machine)
        c = self.costs
        metrics = self.metrics
        reason_name = exit_.reason._value_
        try:
            metrics.record_exit(vcpu.level, reason_name)
            ectx.charge("hw_switch", c.hw_exit)
            ectx.charge("l0_emul", c.l0_dispatch)
            yield c.hw_exit + c.l0_dispatch
            if vcpu.level >= 2 and self.dvh.any_enabled:
                # L0 consults the DVH bits in the (merged) VM-execution
                # controls before routing (§3.2-3.4).
                ectx.charge("l0_emul", c.dvh_route_check)
                yield c.dvh_route_check
            owner = self.registry.route(vcpu, exit_)
            ooh = self.machine.ooh
            if ooh is not None and vcpu.level >= 2:
                # OoH attribution: every exit whose reason a configured
                # grant gates is counted granted or forwarded — revoked
                # grants keep showing up in the forwarded bucket.
                feature = ooh.feature_for(exit_.reason)
                if feature is not None:
                    granted = (
                        owner == 0
                        and vcpu.level == 2
                        and ooh.active(feature)
                    )
                    ooh.record(feature, granted)
                    if granted:
                        ectx.granted = True
                        ectx.charge("ooh_emul", c.ooh_grant_check)
                        yield c.ooh_grant_check
            tracker = self.machine.chain_tracker
            if owner == 0:
                handler, dvh_capable = self.registry.l0_handler(exit_.reason)
                dvh_used = vcpu.level >= 2 and dvh_capable and not ectx.granted
                if ectx.granted:
                    ectx.handler = "l0:ooh"
                else:
                    ectx.handler = "l0:dvh" if dvh_used else "l0"
                result = yield from handler(self, ectx)
                metrics.record_l0_handled(reason_name, dvh=dvh_used)
                if tracker is not None:
                    tracker.on_l0_handled(ectx)
                ectx.charge("hw_switch", c.hw_entry)
                yield c.hw_entry
                return result
            metrics.record_forward(vcpu.level, reason_name, owner)
            if tracker is not None:
                tracker.on_forward(ectx, owner)
            delegated = self._hv_at(1).profile.delegated_reasons
            if delegated and exit_.reason in delegated:
                # Trap delegation (RISC-V hedeleg/hideleg): hardware
                # vectors the trap straight into the first guest
                # hypervisor; L0's forwarding software never runs.  The
                # exit remains a forward for conservation accounting —
                # only the state-save price is replaced.
                metrics.count("delegated_traps")
                ectx.charge("hw_switch", c.delegated_vector)
                yield c.delegated_vector
            else:
                ectx.charge("l0_emul", c.forward_state_save)
                yield c.forward_state_save
            return (yield from self._deliver(vcpu, exit_, owner, ectx))
        finally:
            if ectx.span is not None and self.machine.spans is not None:
                self.machine.spans.close(ectx)

    def _deliver(
        self, vcpu: VCpu, exit_: Exit, owner: int, ectx: ExitContext
    ) -> Generator:
        """Reflect an exit into the guest hypervisors one level at a time,
        from L1 up, until the owner handles it (§2: "the L0 hypervisor
        ... will forward it to the L1 hypervisor, which will forward it
        to the L2 hypervisor via the L0 hypervisor")."""
        hw_entry = self.costs.hw_entry
        via = 1
        while True:
            ectx.charge("hw_switch", hw_entry)
            yield hw_entry  # enter the via-level hypervisor's context
            hv = self._hv_at(via)
            ctx = vcpu.chain_vcpu(via)
            ectx.note_hop()
            # The via-level handler runs as guest code on ``ctx`` while
            # this frame is live: its trapping ops become child frames of
            # this exit chain.
            saved = ctx.exit_context
            ctx.exit_context = ectx
            try:
                if via == owner:
                    ectx.handler = hv.name
                    return (yield from hv.handle_guest_exit(ctx, exit_, ectx))
                yield from hv.reinject_exit(ctx, exit_, ectx)
            finally:
                ctx.exit_context = saved
            via += 1

    def repeatable_l0_vmx(self, left: int) -> int:
        """How many of the ``left`` copies of a level-1 VMREAD/VMWRITE
        run :meth:`repeat_l0_vmx` may apply now, right after L0 handled
        the previous copy directly (0 = dispatch the next one in full).

        Nothing is batched while an observer is attached (the machine's
        fast-forward veto: auditor, fault injector, spans, chain
        tracker, migration), when the cycle charges
        are not integers (float addends keep their order-sensitive
        per-copy replay), or past the ``until`` of the running
        :meth:`Simulator.run` call.
        """
        machine = self.machine
        if machine._ff_veto() is not None:
            return 0
        c = self.costs
        per_exit = c.hw_exit + c.l0_dispatch + c.emul_vmcs_access + c.hw_entry
        cycles = self.metrics.cycles
        if (
            per_exit.__class__ is not int
            or cycles["hw_switch"].__class__ is not int
            or cycles["l0_emul"].__class__ is not int
        ):
            return 0
        sim = machine.sim
        until = sim._until
        if until is not None:
            return max(0, min(left, (until - sim.now) // per_exit))
        return left

    def repeat_l0_vmx(self, vcpu: VCpu, exit_: Exit, k: int) -> Generator:
        """``k`` more copies of the level-1 VMREAD/VMWRITE exit L0 just
        handled directly: the simulated exits, counters, cycles and
        chain ids of ``k`` full dispatches through :func:`_l0_vmx`, in
        one delay (see ``docs/performance.md``, "Repeated L0 exits").
        Only :meth:`repeatable_l0_vmx` decides ``k``.
        """
        c = self.costs
        metrics = self.metrics
        reason_name = exit_.reason._value_
        metrics.record_exit(exit_.from_level, reason_name, k)
        metrics.record_l0_handled(reason_name, count=k)
        metrics.charge("hw_switch", k * (c.hw_exit + c.hw_entry))
        metrics.charge("l0_emul", k * (c.l0_dispatch + c.emul_vmcs_access))
        if vcpu.exit_context is None:
            # Each copy would have been the root of its own chain.
            self.machine.new_chain_id(k)
        yield k * (c.hw_exit + c.l0_dispatch + c.emul_vmcs_access + c.hw_entry)
        return _vmcs_access(exit_.op, exit_.info)

    # ==================================================================
    # L0: timer plumbing (shared by the L0 and guest timer handlers)
    # ==================================================================
    def _arm_hrtimer(
        self, vcpu: VCpu, host_deadline: int, vector: int, provider_level: int
    ) -> None:
        """Arm (or re-arm) the per-vCPU hrtimer backing timer emulation."""
        stale = self._timer_handles.get(vcpu)
        if stale is not None:
            stale.cancel()
        fire_at = max(self.sim.now, host_deadline - vcpu.pcpu.tsc_boot_offset)

        def fire() -> None:
            self.sim.spawn(
                self._timer_fire(vcpu, vector, provider_level),
                f"timer-fire:{vcpu.name}",
            )

        self._timer_handles[vcpu] = self.sim.timer_at(fire_at, fire)

    def _timer_fire(self, vcpu: VCpu, vector: int, provider_level: int) -> Generator:
        """Timer expiry: deliver the timer interrupt to the vCPU.

        With DVH (provider 0) the host delivers directly using posted
        interrupts (§3.2's optimization); otherwise the providing guest
        hypervisor's injection sequence runs first — trapping all the
        way down.
        """
        c = self.costs
        if self.timer_backend == "preemption":
            # VMX-Preemption Timer: expiry IS a VM exit on the running
            # vCPU (no softirq), then the host injects on re-entry.
            vcpu.pending_exit_work += c.l0_roundtrip(c.emul_trivial)
            self.metrics.record_exit(vcpu.level, "preemption_timer")
        else:
            self.metrics.charge("l0_emul", c.hrtimer_fire)
            yield c.hrtimer_fire
        vcpu.lapic.fire_timer()  # latches the vector in the vCPU's IRR
        if provider_level >= 1:
            hv = self._hv_at(provider_level)
            ctx = vcpu.chain_vcpu(provider_level)
            yield from hv.inject_interrupt(ctx, vcpu, vector)
            self.charge_injection(vcpu, "timer")
            self.wake_target(vcpu)
        elif vcpu.level >= 2 and not self.dvh.vtimer_direct_delivery:
            # Virtual timer without the posted-interrupt optimization:
            # expiry is handed to the guest hypervisor to inject, like a
            # regular emulated timer's would be.
            hv = self._hv_at(vcpu.level - 1)
            ctx = vcpu.chain_vcpu(vcpu.level - 1)
            yield from hv.inject_interrupt(ctx, vcpu, vector)
            self.charge_injection(vcpu, "timer")
            self.wake_target(vcpu)
        else:
            self.metrics.record_interrupt("timer", "posted")
            self.deliver_posted(vcpu, vector)
            self.wake_target(vcpu)

    def _vcimt_lookup(self, vcpu: VCpu, dest_index: int) -> VCpu:
        """Read the VCIMT entry for ``dest_index`` from the memory the
        guest hypervisor registered via the VCIMTAR."""
        vcimtar = vcpu.vmcs.read(VmcsField.VCIMTAR)
        if not vcimtar:
            raise RuntimeError(
                f"virtual IPI enabled for {vcpu.name} but no VCIMT registered"
            )
        manager_vm = vcpu.vm.manager.vm  # the VM the guest hypervisor runs in
        entry = manager_vm.memory.read(vcimtar + VCIMT_ENTRY_SIZE * dest_index)
        if entry is None:
            raise RuntimeError(f"VCIMT has no entry for vCPU {dest_index}")
        return entry

    def _host_controls(self) -> ExecControl:
        ctl = ExecControl()
        ctl.hlt_exiting = True
        ctl.apicv = self.capability.apicv
        ctl.posted_interrupts = self.capability.posted_interrupts
        return ctl

    # ==================================================================
    # L0: interrupt delivery plumbing
    # ==================================================================
    def deliver_posted(
        self, vcpu: VCpu, vector: int, ectx: Optional[ExitContext] = None
    ) -> None:
        """Post ``vector`` to a vCPU (no exit if it is running)."""
        vcpu.pi_desc.post(vector)
        if ectx is not None:
            ectx.charge("l0_emul", self.costs.posted_interrupt_delivery)
        else:
            self.metrics.charge("l0_emul", self.costs.posted_interrupt_delivery)

    def wake_target(self, vcpu: VCpu) -> bool:
        """Wake the physical CPU a vCPU is pinned to if it is halted."""
        return vcpu.pcpu.wake()

    def injection_exit_cost(self, vcpu: VCpu) -> int:
        """Estimated cycles the target vCPU's physical CPU spends when an
        interrupt must be *injected* (not posted) into a nested VM: the
        VM exits, the owning guest hypervisor's injection handler runs
        (trapping along the way), and the VM is re-entered via an
        emulated VMRESUME.  Recursively more expensive per level.
        """
        c = self.costs

        def handler_op(j: int) -> int:
            # One trapped op executed by the hypervisor at level j.
            if j <= 1:
                return c.l0_roundtrip(c.emul_vmcs_access)
            return forwarded(j)

        def forwarded(m: int) -> int:
            # A full exit from level m handled by the hypervisor below.
            if m <= 1:
                return c.l0_roundtrip(c.emul_trivial)
            reads, writes = self.profile.reason_op_counts(
                ExitReason.EXTERNAL_INTERRUPT
            )
            base = c.hw_exit + c.l0_dispatch + c.forward_state_save + c.hw_entry
            resume = (
                c.l0_roundtrip(c.emul_vmresume_merge)
                if m == 2
                else forwarded(m - 1)
            )
            return (
                base
                + c.ghv_handler_sw
                + (reads + writes) * handler_op(m - 1)
                + resume
            )

        return forwarded(vcpu.level)

    def charge_injection(self, vcpu: VCpu, kind: str) -> None:
        """Record that ``vcpu`` will absorb a guest-hypervisor-mediated
        interrupt injection at its next scheduling point.

        A halted target is exempt: its wake path already unwinds through
        the guest hypervisor's HLT handler, which performs the injection
        as part of resuming the nested VM."""
        ooh = self.machine.ooh
        if (
            ooh is not None
            and vcpu.level >= 2
            and ooh.active("posted_interrupts")
        ):
            # OoH posted_interrupts grant: the injection used the real
            # posted-interrupt path, so the target absorbs no exit.
            self.metrics.record_interrupt(kind, "posted")
            return
        if not vcpu.pcpu.halted:
            vcpu.pending_exit_work += self.injection_exit_cost(vcpu)
        self.metrics.record_interrupt(kind, "injected")

    def deliver_l0_device_interrupt(self, vcpu: VCpu, vector: int) -> Generator:
        """Deliver an interrupt from an L0-provided virtio device.

        For an L1 vCPU (or a nested vCPU whose virtual IOMMU supports
        posted interrupts — Figure 8's increment), APICv posts directly.
        Otherwise the interrupt is remapped to the L1 hypervisor, whose
        intervention costs the nested VM a forwarded exit.
        """
        c = self.costs
        if vcpu.level == 1 or self.dvh.viommu_posted_interrupts:
            self.metrics.record_interrupt("virtio", "posted")
            self.deliver_posted(vcpu, vector)
            yield c.posted_interrupt_delivery
            self.wake_target(vcpu)
            return None
        vcpu.pi_desc.post(vector)
        yield c.posted_interrupt_delivery
        self.charge_injection(vcpu, "virtio")
        self.wake_target(vcpu)
        return None

    # ==================================================================
    # Guest hypervisor: exit handling (runs as guest code!)
    # ==================================================================
    def op_counts(self, reason: ExitReason) -> Tuple[int, int]:
        reads, writes = self.profile.reason_op_counts(reason)
        if not self.capability.vmcs_shadowing:
            # Ablation: without shadowing, every access traps.
            extra = self.costs.ghv_vmcs_unshadowed_total - (reads + writes)
            reads += (extra + 1) // 2
            writes += extra // 2
        return reads, writes

    def handle_guest_exit(
        self, ctx: VCpu, exit_: Exit, ectx: Optional[ExitContext] = None
    ) -> Generator:
        """Handle an exit from this hypervisor's own guest.

        ``ctx`` is the vCPU of the VM this hypervisor runs in: all
        privileged operations below trap to L0 (and further, if ``ctx``
        is itself nested) — the paper's exit multiplication.
        """
        assert self.level >= 1, "L0 handles exits through the registry, not here"
        if ectx is None:
            ectx = ExitContext(exit_, exit_.vcpu, None, self.machine)
        c = self.costs
        guest_vmcs = exit_.vcpu.chain_vcpu(self.level + 1).vmcs
        reads, writes = self.op_counts(exit_.reason)
        # Exit-information reads: shadowed (free) + residual trapping ones.
        yield from ctx.execute(
            Op.VMREAD,
            count=self.profile.shadowed_accesses,
            vmcs=guest_vmcs,
            field=VmcsField.EXIT_REASON,
        )
        yield from ctx.execute(
            Op.VMREAD, count=reads, vmcs=guest_vmcs, field=VmcsField.PROC_CONTROLS
        )
        ectx.charge("ghv_handler", c.ghv_handler_sw)
        yield from ctx.compute(c.ghv_handler_sw)
        handler = self.registry.guest_handler(exit_.reason, self.profile)
        result = yield from handler(self, ctx, ectx, guest_vmcs)
        yield from ctx.execute(
            Op.VMWRITE,
            count=writes,
            vmcs=guest_vmcs,
            field=VmcsField.PROC_CONTROLS,
            value=0,
        )
        yield from ctx.execute(
            Op.VMRESUME, target_vcpu=exit_.vcpu, vmcs=guest_vmcs
        )
        return result

    def reinject_exit(
        self, ctx: VCpu, exit_: Exit, ectx: Optional[ExitContext] = None
    ) -> Generator:
        """Pass an exit owned by a deeper hypervisor one level up (§2)."""
        if ectx is None:
            ectx = ExitContext(exit_, exit_.vcpu, None, self.machine)
        c = self.costs
        guest_vmcs = exit_.vcpu.chain_vcpu(self.level + 1).vmcs
        ectx.charge("ghv_handler", c.ghv_reinject_sw)
        yield from ctx.compute(c.ghv_reinject_sw)
        yield from ctx.execute(
            Op.VMWRITE,
            count=c.ghv_reinject_trapped,
            vmcs=guest_vmcs,
            field=VmcsField.ENTRY_INTR_INFO,
            value=exit_.reason.value,
        )
        yield from ctx.execute(Op.VMRESUME, target_vcpu=exit_.vcpu, vmcs=guest_vmcs)

    # ------------------------------------------------------------------
    def inject_interrupt(self, ctx: VCpu, target: VCpu, vector: int) -> Generator:
        """This guest hypervisor injects an interrupt into its (possibly
        nested) guest using posted interrupts: update the PI descriptor,
        then ask the physical CPU to send the notification — which traps
        (Figure 4 steps 3-5)."""
        c = self.costs
        ectx = ctx.exit_context
        if ectx is not None:
            # Inside a dispatch: attribute to the live trap frame's span.
            ectx.charge("ghv_handler", c.ghv_inject_sw)
        else:
            # Softirq path (timer fire): no frame, plain metrics charge.
            self.metrics.charge("ghv_handler", c.ghv_inject_sw)
        yield from ctx.compute(c.ghv_inject_sw)
        yield c.pi_descriptor_update
        target.pi_desc.post(vector)
        ooh = self.machine.ooh
        if self.level == 1 and ooh is not None and ooh.active("posted_interrupts"):
            # OoH posted_interrupts grant: this guest hypervisor drives
            # the real posted-interrupt hardware, so the notification is
            # a plain physical IPI — no trapped ICR write, no L0
            # intervention (Figure 4's trap simply never happens).
            ooh.record("posted_interrupts", True)
            cost = c.ooh_apply + c.physical_ipi
            if ectx is not None:
                ectx.charge("ooh_emul", cost)
            else:
                self.metrics.charge("ooh_emul", cost)
            yield cost
            host = self._hv_at(0)
            host.deliver_posted(target, vector, ectx)
            host.wake_target(target)
            return None
        yield from ctx.execute(
            Op.WRMSR,
            msr=MSR_X2APIC_ICR,
            notify_only=True,
            target=target,
            vector=vector,
        )
        return None

    @property
    def dvh_virtual_idle_available(self) -> bool:
        """Whether the platform (ultimately L0) provides virtual idle."""
        host = self.machine.host_hv
        return host is not None and host.dvh.virtual_idle

    # ==================================================================
    # Configuration helpers (used by the stack builder and DVH setup)
    # ==================================================================
    def expose_capability_to(self, guest_hv: "KvmHypervisor") -> None:
        """Set what a hypervisor running in our guest VM can discover.

        DVH bits appear as *hardware* capabilities even though L0
        implements them in software (§3: "virtual hardware appears to
        intervening layers of hypervisors as additional hardware
        capabilities")."""
        cap = self.capability.copy()
        if self.level == 0:
            cap.virtual_timer = self.dvh.virtual_timer
            cap.virtual_ipi = self.dvh.virtual_ipi
            ooh = self.machine.ooh
            if ooh is not None:
                # OoH grants surface to the L1 guest hypervisor as
                # hardware capability bits, like DVH's discovery bits.
                cap.ooh_grants = ooh.configured_names()
        guest_hv.capability = cap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


# ======================================================================
# L0 emulation handlers
# ======================================================================
# Each handler is ``fn(hv, ectx)`` where ``hv`` is the host hypervisor
# and ``ectx`` the trap frame; the vCPU and the exit ride in the frame.
# ``dvh_capable`` marks reasons whose direct L0 handling of a *nested*
# VM's exit is a DVH mechanism (virtual timer/IPI/idle/passthrough).


@DEFAULT_REGISTRY.register_l0(ExitReason.VMCALL)
def _l0_hypercall(hv: KvmHypervisor, ectx: ExitContext) -> Generator:
    c = hv.costs
    ectx.charge("l0_emul", c.emul_hypercall)
    yield c.emul_hypercall
    return None


@DEFAULT_REGISTRY.register_l0(
    ExitReason.CPUID, ExitReason.MSR_READ, ExitReason.MSR_WRITE, default=True
)
def _l0_trivial(hv: KvmHypervisor, ectx: ExitContext) -> Generator:
    c = hv.costs
    ectx.charge("l0_emul", c.emul_trivial)
    yield c.emul_trivial
    return None


@DEFAULT_REGISTRY.register_l0(ExitReason.EPT_VIOLATION)
def _l0_ept_violation(hv: KvmHypervisor, ectx: ExitContext) -> Generator:
    c = hv.costs
    ectx.charge("l0_emul", c.ept_violation_fix)
    yield c.ept_violation_fix
    return None


def _vmcs_access(op: Op, info: Dict[str, Any]) -> Any:
    """The vmcs12 access a trapped VMREAD/VMWRITE performs: the value
    read, or None after a write."""
    vmcs: Optional[Vmcs] = info.get("vmcs")
    fieldname: Optional[VmcsField] = info.get("field")
    if vmcs is None or fieldname is None:
        return None
    if op is Op.VMWRITE:
        vmcs.write(fieldname, info.get("value"))
        return None
    return vmcs.read(fieldname)


@DEFAULT_REGISTRY.register_l0(ExitReason.VMX_INSTRUCTION)
def _l0_vmx(hv: KvmHypervisor, ectx: ExitContext) -> Generator:
    """Emulate a VMX instruction executed by a guest hypervisor."""
    c = hv.costs
    op = ectx.exit_.op
    info = ectx.exit_.info
    if op in (Op.VMREAD, Op.VMWRITE):
        ectx.charge("l0_emul", c.emul_vmcs_access)
        yield c.emul_vmcs_access
        return _vmcs_access(op, info)
    if op is Op.VMPTRLD:
        ectx.charge("l0_emul", c.emul_vmptrld)
        yield c.emul_vmptrld
        return None
    if op in (Op.VMRESUME, Op.VMLAUNCH):
        # The expensive part of nested virtualization: merge the guest
        # hypervisor's vmcs12 into the VMCS L0 actually runs with.
        ectx.charge("l0_emul", c.emul_vmresume_merge)
        yield c.emul_vmresume_merge
        target: Optional[VCpu] = info.get("target_vcpu")
        if target is not None and target.level >= 2:
            target.merged_vmcs.merge_from(target.vmcs, hv._host_controls())
            target.merged_vmcs.write(
                VmcsField.TSC_OFFSET, target.total_tsc_offset()
            )
            # Hardware syncs pending posted interrupts on VM entry.
            target.pi_desc.sync_to(target.lapic)
        return None
    ectx.charge("l0_emul", c.emul_trivial)
    yield c.emul_trivial
    return None


@DEFAULT_REGISTRY.register_l0(ExitReason.APIC_TIMER, dvh_capable=True)
def _l0_timer(hv: KvmHypervisor, ectx: ExitContext) -> Generator:
    """LAPIC TSC-deadline emulation; for nested vCPUs this is the DVH
    virtual timer (§3.2), reached only when routing said so."""
    c = hv.costs
    vcpu = ectx.vcpu
    info = ectx.exit_.info
    if vcpu.level >= 2:
        if ectx.granted:
            # OoH timer_deadline grant: the L1 guest hypervisor owns a
            # real deadline-timer slot, so L0 applies the program at
            # flat single-level cost — no per-level VMCS walk.
            ectx.charge("ooh_emul", c.ooh_apply)
            yield c.ooh_apply
        else:
            # Virtual timer: combine the TSC offsets of every level
            # (already folded into the merged VMCS by §3.2's rule).
            walk = (vcpu.level - 1) * c.dvh_nested_emul
            ectx.charge("dvh_emul", walk)
            yield walk
    ectx.charge("l0_emul", c.emul_timer_program)
    yield c.emul_timer_program
    if info.get("shadow_only"):
        # A guest hypervisor programming its own hardware timer as
        # part of emulating its guest's timer: the authoritative
        # nested-timer record was registered by that hypervisor.
        return None
    deadline_guest = info["deadline"]
    vector = info.get("vector", TIMER_VECTOR)
    host_deadline = deadline_guest - vcpu.total_tsc_offset()
    hv._arm_hrtimer(vcpu, host_deadline, vector, provider_level=0)
    return None


@DEFAULT_REGISTRY.register_l0(ExitReason.APIC_ICR, dvh_capable=True)
def _l0_ipi(hv: KvmHypervisor, ectx: ExitContext) -> Generator:
    """ICR-write emulation: normal for L1 vCPUs, DVH virtual IPI
    (§3.3) for nested vCPUs."""
    c = hv.costs
    vcpu = ectx.vcpu
    info = ectx.exit_.info
    if info.get("notify_only"):
        # Figure 4 step 4/5: a (guest) hypervisor already updated the
        # PI descriptor; send the physical notification.  Do NOT post
        # the vector again here — if the target consumed it between the
        # injector's descriptor update and this trapped notification, a
        # re-post would manufacture a phantom interrupt.
        target: VCpu = info["target"]
        ectx.charge("l0_emul", c.emul_ipi_send + c.physical_ipi)
        yield c.emul_ipi_send + c.physical_ipi
        ectx.charge("l0_emul", c.posted_interrupt_delivery)
        hv.wake_target(target)
        return None
    dest_index = info["dest"]
    vector = info["vector"]
    if vcpu.level >= 2 and ectx.granted:
        # OoH posted_interrupts grant: the L1 guest hypervisor drives
        # the real posted-interrupt machinery, so L0 resolves the
        # destination within the VM directly — flat cost, no VCIMT.
        ectx.charge("ooh_emul", c.ooh_apply)
        yield c.ooh_apply
        dest = vcpu.vm.vcpus[dest_index]
    elif vcpu.level >= 2:
        # Virtual IPI: find the destination through the virtual CPU
        # interrupt mapping table the guest hypervisor registered
        # (§3.3, Figure 5).  The emulation is a bit costlier than the
        # L1 path: reading the table from guest memory and validating
        # the virtual ICR state per level.
        extra = c.vcimt_lookup + (vcpu.level - 1) * c.dvh_nested_emul
        ectx.charge("dvh_emul", extra)
        yield extra
        dest = hv._vcimt_lookup(vcpu, dest_index)
    else:
        dest = vcpu.vm.vcpus[dest_index]
    ectx.charge("l0_emul", c.emul_ipi_send)
    yield c.emul_ipi_send
    ectx.charge("l0_emul", c.pi_descriptor_update + c.physical_ipi)
    yield c.pi_descriptor_update
    dest.pi_desc.post(vector)
    yield c.physical_ipi
    hv.metrics.record_interrupt("ipi", "posted")
    hv.deliver_posted(dest, vector, ectx)
    hv.wake_target(dest)
    return None


@DEFAULT_REGISTRY.register_l0(ExitReason.HLT, dvh_capable=True)
def _l0_hlt(hv: KvmHypervisor, ectx: ExitContext) -> Generator:
    """Block the physical CPU until an interrupt arrives."""
    c = hv.costs
    vcpu = ectx.vcpu
    if vcpu.lapic.has_pending() or vcpu.pi_desc.has_pending:
        # Interrupt already pending: don't block (the wait loop will
        # pick it up on re-entry).
        yield c.emul_trivial
        return None
    hv.metrics.count("halts")
    pcpu = vcpu.pcpu
    pcpu.running_vcpu = None
    ev = pcpu.block()
    yield ev
    pcpu.running_vcpu = vcpu
    ectx.charge("l0_emul", c.halt_wake_sched)
    yield c.halt_wake_sched
    return None


@DEFAULT_REGISTRY.register_l0(ExitReason.MMIO, dvh_capable=True)
def _l0_mmio(hv: KvmHypervisor, ectx: ExitContext) -> Generator:
    """Trapped MMIO: decode, then emulate the device access."""
    c = hv.costs
    vcpu = ectx.vcpu
    info = ectx.exit_.info
    ectx.charge("l0_emul", c.emul_mmio_decode)
    yield c.emul_mmio_decode
    device = info.get("device")
    if device is None:
        yield c.emul_trivial
        return None
    if vcpu.level >= 2:
        # Virtual-passthrough doorbell from a nested VM: L0 must walk
        # the VM's EPT to check the faulting address before handling
        # the access itself (§4's explanation of the DevNotify gap).
        walk = c.vp_nested_ept_walk + (vcpu.level - 2) * c.ept_violation_fix
        ectx.charge("dvh_emul", walk)
        yield walk
    ectx.charge("l0_emul", c.emul_virtio_kick)
    yield c.emul_virtio_kick
    device.mmio_write(info.get("addr", 0), info.get("value"))
    return None


# ======================================================================
# Guest-hypervisor handlers (run as guest code on ``ctx``)
# ======================================================================
# Each handler is ``fn(hv, ctx, ectx, guest_vmcs)``: ``hv`` is the owning
# guest hypervisor, ``ctx`` the vCPU its handler code runs on, ``ectx``
# the (unchanged) trap frame of the forwarded exit.  Flavour differences
# come from ``hv.profile`` — base handlers are registered with
# ``profile=None`` and serve every flavour.


@DEFAULT_REGISTRY.register_guest(ExitReason.APIC_TIMER)
def _guest_timer(hv, ctx: VCpu, ectx: ExitContext, guest_vmcs: Vmcs) -> Generator:
    """Emulate the nested VM's timer with this hypervisor's own
    (which itself traps when programmed — recursion)."""
    exit_ = ectx.exit_
    info = exit_.info
    deadline_for_me = info["deadline"] - exit_.vcpu.vmcs.read(VmcsField.TSC_OFFSET)
    if not info.get("shadow_only"):
        host_deadline = deadline_for_me - ctx.total_tsc_offset()
        hv._hv_at(0)._arm_hrtimer(
            exit_.vcpu,
            host_deadline,
            info.get("vector", TIMER_VECTOR),
            provider_level=hv.level,
        )
    yield from ctx.execute(
        Op.WRMSR,
        msr=MSR_TSC_DEADLINE,
        deadline=deadline_for_me,
        vector=TIMER_VECTOR,
        shadow_only=True,
    )
    return None


@DEFAULT_REGISTRY.register_guest(ExitReason.APIC_ICR)
def _guest_ipi(hv, ctx: VCpu, ectx: ExitContext, guest_vmcs: Vmcs) -> Generator:
    exit_ = ectx.exit_
    info = exit_.info
    if info.get("notify_only"):
        # Forwarding a notification request from a deeper
        # hypervisor: send it on its behalf.
        yield from ctx.execute(
            Op.WRMSR,
            msr=MSR_X2APIC_ICR,
            notify_only=True,
            target=info["target"],
            vector=info.get("vector", 0),
        )
        return None
    dest = exit_.vcpu.vm.vcpus[info["dest"]]
    yield from hv.inject_interrupt(ctx, dest, info["vector"])
    hv._hv_at(0).wake_target(dest)
    return None


@DEFAULT_REGISTRY.register_guest(ExitReason.HLT)
def _guest_hlt(hv, ctx: VCpu, ectx: ExitContext, guest_vmcs: Vmcs) -> Generator:
    yield from ctx.compute(300)  # run-queue check
    # §3.4: with another runnable nested VM, schedule it on this
    # physical CPU instead of idling.
    idle_vcpu = ectx.exit_.vcpu
    scheduler = hv.scheduler
    if scheduler is not None:
        while scheduler.has_runnable_sibling and not (
            idle_vcpu.lapic.has_pending() or idle_vcpu.pi_desc.has_pending
        ):
            yield from scheduler.run_sibling_quantum(ctx, idle_vcpu)
    if not (idle_vcpu.lapic.has_pending() or idle_vcpu.pi_desc.has_pending):
        # Nothing else to run: idle this hypervisor itself
        # (multi-level low-power entry).
        yield from ctx.execute(Op.HLT)
    # Woken: sync pending state into the nested VM and resume it
    # (costs fall out of the trapped ops + the VMRESUME tail).
    wr, ww = hv.profile.wake_ops
    yield from ctx.execute(
        Op.VMREAD, count=wr, vmcs=guest_vmcs, field=VmcsField.PIN_CONTROLS
    )
    yield from ctx.execute(
        Op.VMWRITE,
        count=ww,
        vmcs=guest_vmcs,
        field=VmcsField.ENTRY_INTR_INFO,
        value=0,
    )
    return None


@DEFAULT_REGISTRY.register_guest(ExitReason.MMIO)
def _guest_mmio(hv, ctx: VCpu, ectx: ExitContext, guest_vmcs: Vmcs) -> Generator:
    c = hv.costs
    info = ectx.exit_.info
    profile = hv.profile
    if profile.io_notify_sw:
        # Split-driver model (Xen): the trapped notification is converted
        # to an event-channel upcall into dom0's netback, costing an
        # extra hypercall round trip before the backend runs.
        yield from ctx.compute(profile.io_notify_sw)
        yield from ctx.execute(Op.VMCALL, purpose=profile.io_notify_hypercall)
    device = info.get("device")
    backend = hv.backends.get(device)
    ectx.charge("ghv_handler", c.emul_mmio_decode)
    yield from ctx.compute(c.emul_mmio_decode)
    if device is not None:
        device.mmio_write(info.get("addr", 0), info.get("value"))
    if backend is not None:
        yield from backend.notify_from_guest(ctx)
    return None


@DEFAULT_REGISTRY.register_guest(ExitReason.VMX_INSTRUCTION)
def _guest_vmx(hv, ctx: VCpu, ectx: ExitContext, guest_vmcs: Vmcs) -> Generator:
    """Emulate a VMX instruction for a nested hypervisor: touch the
    deeper vmcs in guest memory, then the tail VMRESUME re-runs
    the nested guest."""
    c = hv.costs
    exit_ = ectx.exit_
    info = exit_.info
    op = exit_.op
    vmcs: Optional[Vmcs] = info.get("vmcs")
    fieldname: Optional[VmcsField] = info.get("field")
    yield from ctx.compute(c.emul_vmcs_access)
    if op is Op.VMWRITE and vmcs is not None and fieldname is not None:
        vmcs.write(fieldname, info.get("value"))
        return None
    if op is Op.VMREAD and vmcs is not None and fieldname is not None:
        return vmcs.read(fieldname)
    if op in (Op.VMRESUME, Op.VMLAUNCH):
        target: Optional[VCpu] = info.get("target_vcpu")
        if target is not None:
            yield from ctx.compute(c.emul_vmresume_merge // 4)
        return None
    return None


@DEFAULT_REGISTRY.register_guest(ExitReason.VMCALL)
def _guest_vmcall(hv, ctx: VCpu, ectx: ExitContext, guest_vmcs: Vmcs) -> Generator:
    yield from ctx.compute(hv.costs.emul_hypercall)
    return None


@DEFAULT_REGISTRY.register_guest(default=True)
def _guest_trivial(hv, ctx: VCpu, ectx: ExitContext, guest_vmcs: Vmcs) -> Generator:
    # CPUID / MSR / IO / EPT...
    yield from ctx.compute(hv.costs.emul_trivial)
    return None
