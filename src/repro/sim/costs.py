"""Cycle-cost model for the simulated machine.

Every latency the simulator charges flows through a :class:`CostModel`
instance.  These are the *leaf* costs only — e.g. the price of one hardware
world switch, or of the host hypervisor emulating one VMREAD on behalf of a
guest hypervisor.  Composite costs (a forwarded exit, an L3 trap chain, a
virtio relay through two hypervisors) are **not** tabulated anywhere: they
emerge from hypervisor handler code in :mod:`repro.hv` executing sequences
of privileged operations through the trap machinery.

Calibration provenance
----------------------
The defaults are calibrated so that the emergent microbenchmark costs land
near the paper's Table 3 (Intel Xeon Silver 4114, 2.2 GHz, Linux 4.18 KVM
with VMCS shadowing):

====================  =========  ==========  ==========
microbenchmark        VM         nested VM   L3 VM
====================  =========  ==========  ==========
Hypercall             1,575      37,733      857,578
DevNotify             4,984      48,390      1,008,935
ProgramTimer          2,005      43,359      1,033,946
SendIPI               3,273      39,456      787,971
====================  =========  ==========  ==========

The structural facts the calibration encodes, all taken from the paper:

* a hardware exit+entry round trip to L0 with a trivial handler costs
  ~1.6K cycles (Table 3, Hypercall/VM);
* an exit forwarded to a guest hypervisor is >20x more expensive, because
  the guest hypervisor's handler executes ~20 privileged operations that
  each trap to L0, plus an emulated VMRESUME whose vmcs12->vmcs02 merge is
  expensive (Section 2, "exit multiplication");
* each additional virtualization level multiplies the cost by roughly the
  same ~20-25x factor (Table 3, L3 column).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

__all__ = [
    "ARCH_COSTS",
    "CostModel",
    "arm_costs",
    "costs_for_arch",
    "default_costs",
    "riscv_costs",
]


@dataclass(slots=True)
class CostModel:
    """All leaf cycle costs charged by the simulator.

    Instances are immutable by convention; use :meth:`scaled` or
    ``dataclasses.replace`` to derive variants for ablation studies.
    ``slots=True`` keeps the many per-trap field reads on the dispatch
    hot path off the instance-dict lookup path.
    """

    # ------------------------------------------------------------------
    # Hardware world-switch costs (VMX transitions)
    # ------------------------------------------------------------------
    #: VM exit: guest -> root mode, state save, reason latch.
    hw_exit: int = 680
    #: VM entry: root -> guest mode, state load, checks.
    hw_entry: int = 560
    #: L0 software dispatch on every exit (KVM vcpu_run loop, reason decode).
    l0_dispatch: int = 240

    # ------------------------------------------------------------------
    # L0 direct emulation costs (ops from an L1 guest, or DVH-handled ops)
    # ------------------------------------------------------------------
    #: Trivial hypercall handling (no work, per Table 1).
    emul_hypercall: int = 95
    #: Emulate one VMREAD/VMWRITE for a guest hypervisor (vmcs12 access).
    emul_vmcs_access: int = 130
    #: Emulate VMPTRLD / shadow VMCS maintenance.
    emul_vmptrld: int = 900
    #: vmcs12 -> vmcs02 merge + consistency checks on emulated VMRESUME.
    emul_vmresume_merge: int = 6400
    #: Decode a trapped MMIO instruction (EPT violation on device BAR).
    emul_mmio_decode: int = 860
    #: Virtio doorbell handling in the host (ioeventfd wakeup + queue check).
    emul_virtio_kick: int = 2540
    #: Extra nested-EPT walk virtual-passthrough pays on each doorbell from a
    #: nested VM (Section 4: DVH DevNotify costs more than VM DevNotify
    #: because L0 must walk the VM's EPT to validate the faulting address).
    vp_nested_ept_walk: int = 7600
    #: Program an hrtimer for LAPIC TSC-deadline emulation.
    emul_timer_program: int = 420
    #: Emulate an ICR write: destination lookup + posted-interrupt update.
    emul_ipi_send: int = 640
    #: Look up the virtual CPU interrupt mapping table (DVH virtual IPIs).
    vcimt_lookup: int = 260
    #: Per-intervening-level overhead of DVH emulation at L0 (reading the
    #: chain's VMCS state, validating virtual-hardware registers).
    dvh_nested_emul: int = 800
    #: L0 checks DVH bits in the VM-execution controls before routing.
    dvh_route_check: int = 120
    #: Emulate a CPUID / generic trivial exit.
    emul_trivial: int = 150

    # ------------------------------------------------------------------
    # Guest-hypervisor world switches (forwarding machinery)
    # ------------------------------------------------------------------
    #: L0 saves the nested guest state and prepares the guest hypervisor's
    #: VMCS before reflecting an exit into it (vmcs02 -> vmcs12 writeback).
    forward_state_save: int = 1750
    #: Hardware-delegated trap vectoring (RISC-V hedeleg/hideleg): the CPU
    #: redirects a delegated VS-level trap straight into the guest
    #: hypervisor's handler — swapping a handful of CSRs — so L0's
    #: forwarding software (``forward_state_save``) never runs.  Unused
    #: (and unreachable) on profiles with no delegated causes.
    delegated_vector: int = 400
    #: Software cycles a guest hypervisor spends per handled exit outside
    #: of privileged instructions (its own handler logic).
    ghv_handler_sw: int = 980
    #: Software cycles for a guest hypervisor to re-inject an exit one
    #: level further up (recursive nesting, Section 2).
    ghv_reinject_sw: int = 620

    # ------------------------------------------------------------------
    # Guest-hypervisor VMCS accesses (the exit-multiplication factor).
    # How many accesses a handler makes is the guest hypervisor's
    # profile (repro.hv.profiles: op_counts, shadowed_accesses); these
    # are their per-access costs and the ablation totals.
    # ------------------------------------------------------------------
    #: Cost of one shadowed access (plain instruction).
    vmcs_shadowed_access: int = 18
    #: Trapping VMCS accesses when re-injecting an exit to a deeper level.
    ghv_reinject_trapped: int = 7
    #: Trapping accesses when *VMCS shadowing is disabled* (ablation).
    ghv_vmcs_unshadowed_total: int = 43

    # ------------------------------------------------------------------
    # Interrupts, timers, idle
    # ------------------------------------------------------------------
    #: Deliver a posted interrupt to a *running* vCPU (no exit).
    posted_interrupt_delivery: int = 320
    #: Update a posted-interrupt descriptor (set PIR bit + ON bit).
    pi_descriptor_update: int = 140
    #: Physical IPI send (ICR write at L0, bare metal).
    physical_ipi: int = 210
    #: Wake a vCPU halted at L0 (scheduler wakeup + run-queue insert).
    halt_wake_sched: int = 610
    #: Guest-hypervisor interrupt injection sequence software cost (per
    #: level) when an interrupt must be injected without posted interrupts.
    ghv_inject_sw: int = 540
    #: LAPIC timer interrupt delivery software path at L0 (hrtimer callback).
    hrtimer_fire: int = 380
    #: Guest OS IRQ entry/ack/EOI software path (charged in the guest).
    guest_irq_entry: int = 450
    #: EOI write (virtualized by APICv: no exit).
    eoi_virtualized: int = 60

    # ------------------------------------------------------------------
    # OoH feature grants (repro.ooh)
    # ------------------------------------------------------------------
    #: L0 validates a granted exit against the grant table before
    #: applying the feature's effect.
    ooh_grant_check: int = 90
    #: Apply a granted feature's effect at single-level cost: the L1
    #: guest hypervisor programmed the real virtual feature, so there is
    #: no per-level VMCS walk to perform.
    ooh_apply: int = 350
    #: Fix one write-protection dirty fault and set the dirty-log bit
    #: (page-table update + bitmap write), whoever owns the log.
    dirty_fault_fix: int = 1800
    #: Hardware appends one dirty GPA to the PML buffer (dirty ring).
    pml_log_entry: int = 12
    #: Drain a full PML buffer into the owning dirty log.
    pml_flush: int = 2400

    # ------------------------------------------------------------------
    # Memory / EPT
    # ------------------------------------------------------------------
    #: Hardware page walk on EPT fill (violation handling software cost).
    ept_violation_fix: int = 2100
    #: Per-level shadow IOMMU table composition cost (per mapped page).
    shadow_iommu_map_page: int = 480
    #: Plain guest memory access batch (ring descriptor read/write).
    ring_access: int = 90

    # ------------------------------------------------------------------
    # Devices and wire
    # ------------------------------------------------------------------
    #: Host-side vhost worker cost per packet/request processed.
    vhost_per_packet: int = 1450
    #: Host-side vhost per-byte copy cost (cycles/byte).
    vhost_per_byte: float = 0.28
    #: Guest driver per-packet cost (skb alloc, ring fill).
    driver_per_packet: int = 620
    #: Guest per-byte touch cost (checksum/copy, cycles/byte).
    guest_per_byte: float = 0.42
    #: Physical NIC wire rate in bits per second (dual-port Intel X520).
    nic_bps: float = 10_000_000_000.0
    #: One-way client<->server wire+switch latency, in cycles (includes
    #: client NIC and switch port latency; ~7.7 us at 2.2 GHz).
    wire_latency: int = 17_000
    #: Remote client per-transaction turnaround cost, in cycles.
    client_turnaround: int = 3_000
    #: SSD per-request service latency, in cycles (~36 us — the S3500's
    #: write path with its capacitor-backed cache).
    ssd_latency: int = 80_000
    #: Migration transfer bandwidth in bits per second (QEMU default used
    #: in the paper's migration experiment: 268 Mbps).
    migration_bps: float = 268_000_000.0

    # ------------------------------------------------------------------
    # Datacenter fabric (repro.cluster)
    # ------------------------------------------------------------------
    #: Per-host link rate to the top-of-rack switch, in bits per second
    #: (40 GbE host uplinks; the 10 Gb X520 ports face the clients).
    fabric_bps: float = 40_000_000_000.0
    #: One-way host<->ToR latency in cycles (cable + switch port,
    #: ~0.6 us at 2.2 GHz).
    fabric_latency: int = 1_300
    #: Store-and-forward latency through the switching core, in cycles.
    fabric_switch_latency: int = 700

    # ------------------------------------------------------------------
    # Spine tier (repro.dc spine-leaf fabrics)
    # ------------------------------------------------------------------
    #: One-way leaf<->spine trunk propagation latency in cycles (longer
    #: runs between rows, ~1.2 us at 2.2 GHz).
    spine_latency: int = 2_600
    #: Store-and-forward latency through a spine switching core, in
    #: cycles (bigger crossbar than a ToR).
    spine_switch_latency: int = 900

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    def l0_roundtrip(self, handler: int = 0) -> int:
        """Cost of a full exit to L0 and re-entry with ``handler`` cycles
        of emulation work (the cheapest possible trap)."""
        return self.hw_exit + self.l0_dispatch + handler + self.hw_entry

    def scaled(self, **overrides: float) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def as_dict(self) -> Dict[str, float]:
        """All cost fields as a plain dict (for reports)."""
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def default_costs() -> CostModel:
    """The calibrated default cost model (see module docstring)."""
    return CostModel()


def arm_costs() -> CostModel:
    """A cost profile for an ARM server (the paper's §3: "DVH can be
    realized on a range of different architectures"; §4 reports DVH-VP
    gains on ARM, omitted for space).

    Structural differences vs the x86 profile, following the published
    ARM virtualization measurements the paper cites (Dall et al., NEVE):

    * hypervisor traps are cheaper (no VMCS load/store machinery);
    * there is no VMCS-shadowing equivalent — every control-structure
      access by a guest hypervisor traps, so the *count* of trapping
      operations per forwarded exit is much higher;
    * the emulated nested-entry copy of the (memory-backed) VGIC and
      system-register state is cheaper per operation but there are more
      of them.

    Net effect, as in the NEVE paper: nested exits are even more
    expensive relative to direct ones than on x86 — which is exactly why
    removing guest-hypervisor interventions pays off there too.
    """
    base = CostModel()
    return base.scaled(
        hw_exit=360,
        hw_entry=310,
        l0_dispatch=210,
        emul_vmcs_access=90,
        emul_vmresume_merge=4_100,
        ghv_reinject_trapped=11,
    )


def riscv_costs() -> CostModel:
    """A cost profile for a RISC-V host with the hypervisor (H)
    extension, run by an HS-mode hypervisor (the paper's §3
    architecture-generality claim exercised on a third ISA).

    Structural facts the overrides encode:

    * a trap from VS/VU-mode to HS-mode is a lightweight mode switch —
      ``scause``/``htval``/``htinst`` latch the reason and there is no
      VMCS-sized state block to load or store — so the raw world switch
      is the cheapest of the three ISAs;
    * like ARM, there is no VMCS-shadowing equivalent: every
      control-CSR access a nested guest hypervisor makes traps, though
      each trapped CSR swap is cheap;
    * the emulated nested entry (``sret`` into VS-mode on behalf of a
      deeper level) copies ``hstatus``/``vsstatus``/``htimedelta`` and
      friends — far less state than a vmcs12->vmcs02 merge;
    * two-stage translation (VS-stage then G-stage) makes a nested page
      walk quadratic in depth, so a guest-page-fault fill is *dearer*
      than an x86 EPT fill;
    * trap delegation (``hedeleg``/``hideleg``) lets hardware vector
      whole cause classes straight into the guest hypervisor —
      that short-circuit is ``delegated_vector`` (see
      :data:`repro.hv.profiles.HS_PROFILE`), not a scaled field here.
    """
    base = CostModel()
    return base.scaled(
        hw_exit=290,
        hw_entry=250,
        l0_dispatch=190,
        emul_hypercall=80,
        emul_vmcs_access=70,
        emul_vmptrld=320,
        emul_vmresume_merge=2_900,
        forward_state_save=1_450,
        ghv_reinject_trapped=10,
        ghv_vmcs_unshadowed_total=36,
        ept_violation_fix=2_700,
    )


#: Architecture name -> cost-model factory, the single selection point
#: used by :func:`repro.hv.stack.build_stack` and the cluster layer.
ARCH_COSTS = {
    "x86": default_costs,
    "arm": arm_costs,
    "riscv": riscv_costs,
}


def costs_for_arch(arch: str) -> CostModel:
    """Return the cost model for ``arch`` (``x86``/``arm``/``riscv``)."""
    try:
        factory = ARCH_COSTS[arch]
    except KeyError:
        raise ValueError(
            f"unknown arch {arch!r}; expected one of {sorted(ARCH_COSTS)}"
        ) from None
    return factory()
