"""Declarative hypervisor profiles.

A :class:`HypervisorProfile` captures everything that distinguishes one
guest-hypervisor flavour from another as **data**: how many trapping
VMCS accesses its exit handlers perform per reason, how much of the exit
information VMCS shadowing absorbs, and any extra I/O-notification work
its driver model imposes.  The shared exit handlers in
:mod:`repro.hv.kvm` consult the profile (one guest-handler table serves
every flavour); adding a hypervisor flavour means writing a profile,
not new handlers or subclass method surgery.

Three profiles ship:

* ``kvm`` — the paper's host and guest hypervisor (Linux/KVM 4.18);
* ``xen`` — Xen 4.10 as the guest hypervisor (Figure 10): heavier
  trapping VMCS access patterns (its nested exit handling is less tuned
  for running *under* another hypervisor) and a split-driver I/O model
  whose notifications hop through an event channel into dom0.
* ``hs`` — a RISC-V H-extension hypervisor running in HS-mode
  (``arch="riscv"`` only): leaner per-exit CSR traffic than a VMCS, no
  shadowing equivalent, and — the H-extension's headline feature —
  *trap delegation*: causes listed in :attr:`delegated_reasons` are
  vectored by hardware (``hedeleg``/``hideleg``) straight into the
  first guest hypervisor's handler, short-circuiting L0's forwarding
  software.

The paper runs Xen as the *guest* hypervisor only ("nested
virtualization support does not work properly in recent Xen versions
... we ran Xen only as the guest hypervisor"), with KVM as the host.
Being hypervisor-agnostic is a selling point of virtual-passthrough
(§3.1), and Figure 10 shows DVH-VP delivering passthrough-like
performance under Xen too.  A Xen guest hypervisor is literally the
same dispatch tables and handler code as KVM, parameterized by
:data:`XEN_PROFILE` — the stack builder instantiates
:class:`repro.hv.kvm.KvmHypervisor` with ``profile=PROFILES["xen"]``;
there is no Xen subclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.hw.ops import ExitReason

__all__ = [
    "HypervisorProfile",
    "HS_PROFILE",
    "KVM_PROFILE",
    "XEN_PROFILE",
    "PROFILES",
]


#: Trapping (read, write) VMCS-access counts per handled exit reason for
#: KVM's handlers: the residual non-shadowed accesses made with VMCS
#: shadowing enabled.
_KVM_OP_COUNTS: Dict[ExitReason, Tuple[int, int]] = {
    ExitReason.VMCALL: (8, 8),
    ExitReason.CPUID: (7, 6),
    ExitReason.MSR_READ: (7, 6),
    ExitReason.MSR_WRITE: (7, 6),
    ExitReason.VMX_INSTRUCTION: (9, 8),
    ExitReason.MMIO: (11, 9),
    ExitReason.EPT_VIOLATION: (8, 7),
    ExitReason.IO_INSTRUCTION: (10, 9),
    ExitReason.APIC_TIMER: (10, 8),
    ExitReason.APIC_ICR: (9, 7),
    ExitReason.HLT: (4, 3),
    ExitReason.EXTERNAL_INTERRUPT: (3, 2),
    ExitReason.PREEMPTION_TIMER: (3, 2),
}


@dataclass(frozen=True)
class HypervisorProfile:
    """One guest-hypervisor flavour, as pure data."""

    #: Profile key (``StackConfig.guest_hv``); every flavour runs the
    #: same guest handlers, so the name selects data only.
    name: str
    #: Trapping (read, write) VMCS accesses per handled exit reason.
    op_counts: Dict[ExitReason, Tuple[int, int]] = field(default_factory=dict)
    #: (read, write) fallback for reasons missing from :attr:`op_counts`.
    default_op_counts: Tuple[int, int] = (9, 8)
    #: Shadowed (non-trapping) VMCS accesses per handled exit.
    shadowed_accesses: int = 26
    #: Trapped (read, write) accesses on the wake path after an emulated
    #: HLT returns.
    wake_ops: Tuple[int, int] = (2, 1)
    #: Extra software cycles per I/O notification before the backend runs
    #: (Xen: the event-channel hop from the device model to netback in
    #: dom0).  Zero disables the hop entirely.
    io_notify_sw: int = 0
    #: Purpose tag of the hypercall the I/O-notification hop performs
    #: (the trapped ``VMCALL`` is charged like any other exit).
    io_notify_hypercall: Optional[str] = None
    #: Exit reasons hardware vectors directly into the first guest
    #: hypervisor (RISC-V ``hedeleg``/``hideleg``).  A delegated exit is
    #: still *forwarded* for accounting purposes — the guest hypervisor's
    #: handler runs in full — but L0's forwarding software is replaced by
    #: the cheap ``CostModel.delegated_vector`` hardware redirect.  Empty
    #: on architectures without a delegation mechanism.
    delegated_reasons: FrozenSet[ExitReason] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        # Flattened per-reason (read, write) table indexed by
        # ExitReason.index — the exit hot path reads this instead of
        # doing a dict lookup per exit.  Built once per (frozen) profile.
        table = tuple(
            self.op_counts.get(reason, self.default_op_counts)
            for reason in ExitReason
        )
        object.__setattr__(self, "op_count_table", table)

    def reason_op_counts(self, reason: ExitReason) -> Tuple[int, int]:
        return self.op_count_table[reason.index]


KVM_PROFILE = HypervisorProfile(name="kvm", op_counts=dict(_KVM_OP_COUNTS))

#: Xen's handlers perform more trapping VMCS accesses per exit than
#: KVM-on-KVM (nested Xen cannot exploit VMCS shadowing as well), and its
#: split-driver model adds an event-channel hypercall per notification.
XEN_PROFILE = HypervisorProfile(
    name="xen",
    op_counts={
        reason: (reads + 5, writes + 4)
        for reason, (reads, writes) in _KVM_OP_COUNTS.items()
    },
    shadowed_accesses=34,
    io_notify_sw=1400,
    io_notify_hypercall="evtchn_send",
)

#: Trapping (read, write) control-CSR access counts per handled exit
#: reason for an HS-mode RISC-V hypervisor.  There is no shadowing, so
#: every access traps, but the H-extension latches the trap reason in
#: directly-readable CSRs (``scause``/``htval``/``htinst``), so handlers
#: need fewer reads than KVM's VMCS-walking paths.
_HS_OP_COUNTS: Dict[ExitReason, Tuple[int, int]] = {
    reason: (max(reads - 1, 1), max(writes - 1, 1))
    for reason, (reads, writes) in _KVM_OP_COUNTS.items()
}

#: Cause classes a real HS-mode hypervisor delegates via
#: ``hedeleg``/``hideleg``: environment calls from VS-mode (the
#: ``VMCALL`` analogue of ``ecall``), guest CSR accesses (the
#: ``MSR_*`` analogue), and ``wfi`` (the ``HLT`` analogue).  MMIO/page
#: faults stay undelegated: the G-stage tables live at L0.
HS_PROFILE = HypervisorProfile(
    name="hs",
    op_counts=dict(_HS_OP_COUNTS),
    default_op_counts=(8, 7),
    shadowed_accesses=0,
    delegated_reasons=frozenset(
        {
            ExitReason.VMCALL,
            ExitReason.MSR_READ,
            ExitReason.MSR_WRITE,
            ExitReason.HLT,
        }
    ),
)

PROFILES: Dict[str, HypervisorProfile] = {
    KVM_PROFILE.name: KVM_PROFILE,
    XEN_PROFILE.name: XEN_PROFILE,
    HS_PROFILE.name: HS_PROFILE,
}
