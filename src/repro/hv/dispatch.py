"""Exit dispatch: the trap frame and the fixed exit tables.

This module is the architectural spine of the trap path.  Two pieces:

* :class:`ExitContext` — a first-class trap frame created at the trap
  site (``VCpu.execute``) and threaded **unmodified** through L0
  dispatch, guest-hypervisor forwarding, re-entry, and the DVH
  emulation handlers.  It carries the exit-chain identity (a chain id
  shared by every exit a single guest operation ultimately causes), the
  origin level, the forwarding hop count, and — when span tracing is on
  — the open :class:`repro.metrics.spans.Span` cycles are attributed to.

* :class:`ExitHandlerRegistry` — three tables indexed by
  ``ExitReason.index``, filled once: the L0 emulation handlers and the
  guest-hypervisor handlers (both from :mod:`repro.hv.kvm`, which builds
  :data:`repro.hv.kvm.DEFAULT_REGISTRY`), and the routing table.
  Routing follows the paper's one rule (§2): L0 takes every exit, then
  handles it or forwards it to the level that owns it.  The owner of an
  ``APIC_TIMER``, ``APIC_ICR``, ``HLT`` or ``MMIO`` exit is decided by
  the DVH mechanism for it (:mod:`repro.core.vtimer`,
  :mod:`repro.core.vipi`, :mod:`repro.core.vidle`,
  :mod:`repro.core.vpassthrough`, each exposing ``exit_owner``); ahead
  of that, the OoH grant gates (:data:`repro.ooh.grants.GATED_REASONS`)
  short-circuit a level-2 exit whose grant is active.  Hypervisor
  flavours (kvm, xen, hs) share one guest table: they differ only in
  their :class:`repro.hv.profiles.HypervisorProfile` data.

The tables carry no simulation state; one process-wide instance serves
every machine.  All mutable per-chain state lives in the
:class:`ExitContext`.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from repro.core import vidle, vipi, vpassthrough, vtimer
from repro.hw.ops import Exit, ExitReason
from repro.ooh.grants import GATED_REASONS

__all__ = [
    "ExitContext",
    "ExitHandlerRegistry",
]


#: An L0 emulation handler: ``fn(l0_hv, ectx) -> Generator[cost]``.
L0Handler = Callable[[Any, "ExitContext"], Generator]
#: A guest-hypervisor handler: ``fn(guest_hv, ctx, ectx, guest_vmcs)``.
GuestHandler = Callable[[Any, Any, "ExitContext", Any], Generator]
#: An owner: ``fn(vcpu, exit_) -> owner level``.
Owner = Callable[[Any, Exit], int]

#: The DVH mechanism that decides the owner of each reason it can
#: short-circuit (§3.1-3.5).
DVH_OWNERS = {
    ExitReason.MMIO: vpassthrough.exit_owner,
    ExitReason.APIC_TIMER: vtimer.exit_owner,
    ExitReason.APIC_ICR: vipi.exit_owner,
    ExitReason.HLT: vidle.exit_owner,
}


class ExitContext:
    """The trap frame of one hardware VM exit.

    Lifecycle: created at the trap site, passed by reference through the
    whole dispatch (never copied, never rebuilt at a forwarding hop), and
    closed when L0 re-enters the guest.  A privileged operation executed
    *by a handler* while this frame is live traps into a **child**
    context: same ``chain_id``, ``depth + 1`` — which is exactly the
    paper's exit multiplication, made observable.
    """

    __slots__ = (
        "exit_",
        "vcpu",
        "chain_id",
        "origin_level",
        "hops",
        "depth",
        "parent",
        "metrics",
        "span",
        "charge",
        "handler",
        "granted",
    )

    def __init__(
        self,
        exit_: Exit,
        vcpu: Any,
        parent: Optional["ExitContext"],
        machine: Any,
    ) -> None:
        self.exit_ = exit_
        self.vcpu = vcpu
        self.parent = parent
        self.origin_level = vcpu.level
        #: Forwarding legs this exit traversed (0 = handled by L0 directly).
        self.hops = 0
        self.metrics = machine.metrics
        #: Who ended up handling the exit ("l0", "l0:dvh", "l0:ooh", or
        #: the owning guest hypervisor's name); set by the dispatcher.
        self.handler = ""
        #: Whether an OoH feature grant short-circuited this exit (set
        #: by the dispatcher; handlers price granted exits flat).
        self.granted = False
        if parent is None:
            self.chain_id = machine.new_chain_id()
            self.depth = 0
        else:
            self.chain_id = parent.chain_id
            self.depth = parent.depth + 1
        tracker = machine.chain_tracker
        if tracker is not None:
            tracker.on_exit(self)
        # ``charge(category, cycles)`` is bound once per frame (its span
        # never changes): the metrics' own charge, or with tracing on,
        # one that also attributes the cycles to the frame's span.
        collector = machine.spans
        if collector is not None and collector.enabled:
            self.span = collector.open(self)
            self.charge = self._charge_with_span
        else:
            self.span = None
            self.charge = self.metrics.charge

    # ------------------------------------------------------------------
    def _charge_with_span(self, category: str, cycles: float) -> None:
        """Charge the machine metrics and the open span."""
        self.metrics.charge(category, cycles)
        self.span.add(category, cycles)

    def note_hop(self) -> None:
        self.hops += 1


def _manager_owner(vcpu: Any, exit_: Exit) -> int:
    """Hypercalls, VMX instructions, CPUID, MSRs: the VM's own manager."""
    return vcpu.level - 1


class ExitHandlerRegistry:
    """The L0 handler, guest handler and owner of every exit reason."""

    __slots__ = ("l0", "guest", "owners", "gates")

    def __init__(
        self,
        l0: Sequence[Tuple[L0Handler, bool]],
        guest: Sequence[GuestHandler],
    ) -> None:
        #: ``(handler, dvh_capable)`` per reason: ``dvh_capable`` marks
        #: reasons whose direct L0 handling of a nested VM's exit *is* a
        #: DVH mechanism (timer, ICR, HLT, MMIO), for the ``dvh_handled``
        #: attribution.
        self.l0: List[Tuple[L0Handler, bool]] = list(l0)
        self.guest: List[GuestHandler] = list(guest)
        self.owners: List[Owner] = [
            DVH_OWNERS.get(reason, _manager_owner) for reason in ExitReason
        ]
        #: The OoH feature whose grant gates each reason, or None.
        self.gates: List[Optional[str]] = [
            GATED_REASONS.get(reason) for reason in ExitReason
        ]

    def route(self, vcpu: Any, exit_: Exit) -> int:
        """Return the level of the hypervisor that must handle the exit
        (0 = the host hypervisor handles it directly)."""
        if vcpu.level == 1:
            return 0
        index = exit_.reason.index
        if vcpu.level == 2:
            # OoH grant gates: an active grant to the L1 guest
            # hypervisor short-circuits forwarding for its reason.  A
            # revoked or absent grant falls through to the owners —
            # graceful degradation to forwarding.  Deeper levels always
            # fall through (grants cover one guest-hypervisor level).
            feature = self.gates[index]
            if feature is not None:
                ooh = vcpu.vm.machine.ooh
                if ooh is not None and ooh.active(feature):
                    return 0
        return self.owners[index](vcpu, exit_)
