"""VMX structures: VMCS, execution controls, capability MSRs, shadowing.

Only the host hypervisor (L0) drives the (simulated) hardware VMX; guest
hypervisors keep their own vmcs12 structures, which L0 merges into the
hardware VMCS when emulating VMRESUME — exactly the single-level hardware
model the paper describes in Section 2.

DVH virtual hardware (Sections 3.2-3.4) plugs in here: the paper adds one
bit per mechanism to the VMX *capability* MSR (discovery) and one to the
VM-execution controls (enablement), visible to both guest and host
hypervisors.  Those bits are first-class fields below.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Set, Tuple

__all__ = [
    "VmcsField",
    "VmxCapability",
    "ExecControl",
    "Vmcs",
    "SHADOWED_FIELDS",
    "VCIMT_ENTRY_SIZE",
]

#: Bytes per virtual-CPU-interrupt-mapping-table entry (§3.3: vCPU number
#: -> posted-interrupt descriptor).  Part of the DVH virtual-hardware
#: interface definition.
VCIMT_ENTRY_SIZE = 16


class VmcsField(enum.Enum):
    """VMCS fields the simulation models (subset of the Intel SDM set)."""

    # Identity hashing (as for repro.hw.ops.Op): every field access
    # indexes a Vmcs.fields dict.
    __hash__ = object.__hash__

    # Guest state
    GUEST_RIP = "guest_rip"
    GUEST_RSP = "guest_rsp"
    GUEST_CR3 = "guest_cr3"
    GUEST_INTERRUPTIBILITY = "guest_interruptibility"
    GUEST_ACTIVITY_STATE = "guest_activity_state"
    # Host state
    HOST_RIP = "host_rip"
    HOST_CR3 = "host_cr3"
    # Controls
    PIN_CONTROLS = "pin_controls"
    PROC_CONTROLS = "proc_controls"
    PROC_CONTROLS2 = "proc_controls2"
    EXCEPTION_BITMAP = "exception_bitmap"
    TSC_OFFSET = "tsc_offset"
    EPT_POINTER = "ept_pointer"
    MSR_BITMAP = "msr_bitmap"
    POSTED_INTR_DESC_ADDR = "posted_intr_desc_addr"
    POSTED_INTR_VECTOR = "posted_intr_vector"
    VMCS_LINK_POINTER = "vmcs_link_pointer"
    PREEMPTION_TIMER_VALUE = "preemption_timer_value"
    # Exit information
    EXIT_REASON = "exit_reason"
    EXIT_QUALIFICATION = "exit_qualification"
    EXIT_GUEST_PHYS_ADDR = "exit_guest_phys_addr"
    EXIT_INSTRUCTION_LEN = "exit_instruction_len"
    EXIT_INTR_INFO = "exit_intr_info"
    ENTRY_INTR_INFO = "entry_intr_info"
    # DVH virtual hardware (paper Sections 3.2, 3.3)
    VIRTUAL_TIMER_DEADLINE = "virtual_timer_deadline"
    VIRTUAL_TIMER_VECTOR = "virtual_timer_vector"
    VCIMTAR = "vcimtar"  # virtual CPU interrupt mapping table address


#: Every field, in declaration order: the key template of each
#: ``Vmcs.fields`` table.
_FIELDS: Tuple[VmcsField, ...] = tuple(VmcsField)

#: Fields covered by hardware VMCS shadowing: the guest hypervisor can
#: VMREAD/VMWRITE these without trapping (Intel VMCS Shadowing whitepaper;
#: exit-information and frequently-accessed guest-state fields).
SHADOWED_FIELDS: FrozenSet[VmcsField] = frozenset(
    {
        VmcsField.GUEST_RIP,
        VmcsField.GUEST_RSP,
        VmcsField.GUEST_INTERRUPTIBILITY,
        VmcsField.EXIT_REASON,
        VmcsField.EXIT_QUALIFICATION,
        VmcsField.EXIT_GUEST_PHYS_ADDR,
        VmcsField.EXIT_INSTRUCTION_LEN,
        VmcsField.EXIT_INTR_INFO,
    }
)


@dataclass
class VmxCapability:
    """The VMX capability MSR a hypervisor exposes to a guest hypervisor.

    ``virtual_timer`` / ``virtual_ipi`` are the DVH discovery bits the
    paper adds ("we add one bit in the VMX capability register", §3.2/§3.3).
    """

    vmx: bool = True
    ept: bool = True
    vmcs_shadowing: bool = True
    apicv: bool = True
    posted_interrupts: bool = True
    preemption_timer: bool = True
    # --- DVH capability bits ---
    virtual_timer: bool = False
    virtual_ipi: bool = False
    # --- OoH grant discovery bits (repro.ooh) ---
    #: Feature grants the level below exposes to this hypervisor: the
    #: guest hypervisor discovers granted features here and programs the
    #: real virtual feature instead of emulating.
    ooh_grants: Tuple[str, ...] = ()

    def copy(self) -> "VmxCapability":
        return VmxCapability(**self.__dict__)


@dataclass
class ExecControl:
    """VM-execution controls (the subset that drives routing decisions).

    ``virtual_timer_enable`` / ``virtual_ipi_enable`` are the DVH enable
    bits ("one [bit] in the VM execution control register", §3.2/§3.3).
    ``hlt_exiting`` is the existing control virtual idle manipulates
    (§3.4).
    """

    hlt_exiting: bool = True
    use_msr_bitmap: bool = True
    ept_enable: bool = True
    shadow_vmcs: bool = False
    apicv: bool = False
    posted_interrupts: bool = False
    # --- DVH enable bits ---
    virtual_timer_enable: bool = False
    virtual_ipi_enable: bool = False

    def copy(self) -> "ExecControl":
        return ExecControl(**self.__dict__)


class Vmcs:
    """One virtual-machine control structure.

    Instances play three roles:

    * ``vmcs01`` — L0's control structure for an L1 vCPU;
    * ``vmcs12`` — a guest hypervisor's structure for *its* guest, kept in
      guest memory and emulated by the level below;
    * ``vmcs0n`` — the merged structure L0 actually runs a nested vCPU
      with (produced by :meth:`merge_from`).
    """

    _next_id = 1

    def __init__(self, owner_level: int, name: str = "") -> None:
        #: Virtualization level of the hypervisor that owns this VMCS
        #: (0 = host hypervisor).
        self.owner_level = owner_level
        self.name = name or f"vmcs{Vmcs._next_id}"
        Vmcs._next_id += 1
        self.fields: Dict[VmcsField, Any] = dict.fromkeys(_FIELDS, 0)
        self.controls = ExecControl()
        #: Shadow VMCS linkage: when set and shadowing is enabled for the
        #: guest hypervisor, reads/writes of SHADOWED_FIELDS don't trap.
        self.shadow: Optional["Vmcs"] = None
        #: Set of vCPUs launched from this VMCS (bookkeeping).
        self.launched = False
        #: TSC offset between this VMCS's owner and its immediate guest;
        #: the merged TSC_OFFSET field adds the guest hypervisor's own
        #: offset on top of this (see merge_from).
        self._base_tsc_offset = 0

    # ------------------------------------------------------------------
    # Field access
    # ------------------------------------------------------------------
    def read(self, fieldname: VmcsField) -> Any:
        return self.fields[fieldname]

    def write(self, fieldname: VmcsField, value: Any) -> None:
        self.fields[fieldname] = value

    # ------------------------------------------------------------------
    # Merge (emulated VMRESUME: vmcs12 -> vmcs02)
    # ------------------------------------------------------------------
    def merge_from(self, vmcs12: "Vmcs", host_controls: ExecControl) -> None:
        """Combine a guest hypervisor's vmcs12 with host controls into
        this (merged) VMCS, the core of emulated nested VM entry.

        Guest-state fields come from vmcs12.  Control bits combine so that
        the host hypervisor retains control: a trap is taken if *either*
        level wants it — except where DVH deliberately clears guest-level
        traps (virtual idle, §3.4).  TSC offsets add (§3.2).
        """
        for f in (
            VmcsField.GUEST_RIP,
            VmcsField.GUEST_RSP,
            VmcsField.GUEST_CR3,
            VmcsField.GUEST_INTERRUPTIBILITY,
            VmcsField.POSTED_INTR_DESC_ADDR,
            VmcsField.POSTED_INTR_VECTOR,
            VmcsField.VIRTUAL_TIMER_VECTOR,
            VmcsField.VCIMTAR,
        ):
            self.fields[f] = vmcs12.fields[f]
        # Combined TSC offset: host-provided base plus the guest
        # hypervisor's offset for its guest (paper §3.2: "accesses the
        # timer offset the guest hypervisor programmed to a VMCS, combines
        # it with time difference between itself and the guest
        # hypervisor").
        self.fields[VmcsField.TSC_OFFSET] = (
            vmcs12.fields[VmcsField.TSC_OFFSET] + self._base_tsc_offset
        )
        ctl = ExecControl()
        ctl.hlt_exiting = vmcs12.controls.hlt_exiting or host_controls.hlt_exiting
        ctl.use_msr_bitmap = True
        ctl.ept_enable = True
        ctl.shadow_vmcs = vmcs12.controls.shadow_vmcs
        ctl.apicv = vmcs12.controls.apicv and host_controls.apicv
        ctl.posted_interrupts = (
            vmcs12.controls.posted_interrupts and host_controls.posted_interrupts
        )
        ctl.virtual_timer_enable = vmcs12.controls.virtual_timer_enable
        ctl.virtual_ipi_enable = vmcs12.controls.virtual_ipi_enable
        self.controls = ctl

    def set_base_tsc_offset(self, offset: int) -> None:
        """The offset between this VMCS's owner and its guest."""
        self._base_tsc_offset = offset
        self.fields[VmcsField.TSC_OFFSET] = offset

    def is_shadowed(self, fieldname: VmcsField) -> bool:
        """Whether a guest hypervisor's access to ``fieldname`` on this
        vmcs12 is absorbed by VMCS shadowing (no trap)."""
        return self.controls.shadow_vmcs and fieldname in SHADOWED_FIELDS
