"""Registry-based exit dispatch: the trap frame and the handler registry.

This module is the architectural spine of the trap path.  Two pieces:

* :class:`ExitContext` — a first-class trap frame created at the trap
  site (``VCpu.execute``) and threaded **unmodified** through L0
  dispatch, guest-hypervisor forwarding, re-entry, and the DVH
  emulation handlers.  It carries the exit-chain identity (a chain id
  shared by every exit a single guest operation ultimately causes), the
  origin level, the forwarding hop count, and — when span tracing is on
  — the open :class:`repro.metrics.spans.Span` cycles are attributed to.

* :class:`ExitHandlerRegistry` — maps ``(ExitReason, profile)`` to
  handler generators, and ``ExitReason`` to *ownership claims*.  L0
  emulation handlers and guest-hypervisor handlers are registered by
  :mod:`repro.hv.kvm`; hypervisor flavours are declarative
  :class:`repro.hv.profiles.HypervisorProfile` values; and each DVH
  feature module (:mod:`repro.core.vtimer`, :mod:`repro.core.vipi`,
  :mod:`repro.core.vidle`, :mod:`repro.core.vpassthrough`) registers the
  ownership claim for the exit reason it short-circuits, instead of the
  host hypervisor string-matching control-bit names.

The registry carries no simulation state; one process-wide
:data:`DEFAULT_REGISTRY` serves every machine.  All mutable per-chain
state lives in the :class:`ExitContext`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.hw.ops import Exit, ExitReason

__all__ = [
    "DispatchTableError",
    "ExitContext",
    "ExitHandlerRegistry",
    "DEFAULT_REGISTRY",
    "recursive_dvh_owner",
]


class DispatchTableError(LookupError):
    """An ``ExitReason`` has no registered handler for the active
    profile.

    Subclasses :class:`LookupError` so pre-existing ``except LookupError``
    call sites keep working; raised eagerly by
    :meth:`ExitHandlerRegistry.validate_tables` at stack-build time so a
    mis-registered (e.g. arch-conditional) reason fails loudly instead of
    ``None``-dispatching on first occurrence at runtime.
    """

#: An L0 emulation handler: ``fn(l0_hv, ectx) -> Generator[cost]``.
L0Handler = Callable[[Any, "ExitContext"], Generator]
#: A guest-hypervisor handler: ``fn(guest_hv, ctx, ectx, guest_vmcs)``.
GuestHandler = Callable[[Any, Any, "ExitContext", Any], Generator]
#: An ownership claim: ``fn(vcpu, exit_) -> owner level``.
OwnershipClaim = Callable[[Any, Exit], int]


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

    def chain(self) -> List["ExitContext"]:
        """Ancestry from the chain root down to this frame."""
        out: List[ExitContext] = []
        node: Optional[ExitContext] = self
        while node is not None:
            out.append(node)
            node = node.parent
        out.reverse()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ExitContext #{self.chain_id}.{self.depth} "
            f"{self.exit_.reason.value} L{self.origin_level} hops={self.hops}>"
        )


# ----------------------------------------------------------------------
# Ownership helpers
# ----------------------------------------------------------------------
def recursive_dvh_owner(vcpu: Any, enabled: Callable[[Any], bool]) -> int:
    """The §3.5 recursive-enable walk, generic over the enable bit.

    DVH handles the exit at L0 only if every intervening hypervisor set
    the enable bit for its guest (the bits AND together).  Otherwise
    forwarding descends from the innermost level: the first hypervisor
    (from the VM's own manager downward) whose enable bit for its guest
    is clear must emulate.  ``enabled`` reads the feature's enable bit
    off an :class:`repro.hw.vmx.ExecControl` — a direct attribute access
    supplied by the feature module, not a string-matched name.
    """
    for m in range(vcpu.level, 1, -1):
        if not enabled(vcpu.chain_vcpu(m).vmcs.controls):
            return m - 1
    return 0


class ExitHandlerRegistry:
    """Maps ``(ExitReason, profile)`` to handlers and reasons to claims."""

    def __init__(self) -> None:
        self._l0: Dict[ExitReason, Tuple[L0Handler, bool]] = {}
        self._l0_default: Optional[Tuple[L0Handler, bool]] = None
        self._guest: Dict[Tuple[ExitReason, Optional[str]], GuestHandler] = {}
        self._guest_default: Optional[GuestHandler] = None
        self._claims: Dict[ExitReason, OwnershipClaim] = {}
        #: OoH grant gates: reason -> grantable feature name.  Consulted
        #: *before* the ownership claims for level-2 vCPUs, so an active
        #: grant short-circuits forwarding exactly where a DVH claim
        #: would (see repro.ooh.grants.register_ownership).
        self._grant_gates: Dict[ExitReason, str] = {}
        self._claims_installed = False
        # Flattened lookup tables indexed by ExitReason.index, with the
        # defaults/fallbacks folded in.  Built lazily on first use and
        # dropped on any (re-)registration; the dispatch hot path never
        # pays a dict lookup or a fallback chain per exit.
        self._l0_table: Optional[List[Optional[Tuple[L0Handler, bool]]]] = None
        self._guest_tables: Dict[Optional[str], List[Optional[GuestHandler]]] = {}
        self._claims_table: Optional[List[Optional[OwnershipClaim]]] = None
        self._gate_table: Optional[List[Optional[str]]] = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_l0(
        self, *reasons: ExitReason, dvh_capable: bool = False, default: bool = False
    ) -> Callable[[L0Handler], L0Handler]:
        """Register an L0 emulation handler for ``reasons``.

        ``dvh_capable`` marks reasons whose direct L0 handling of a
        nested VM's exit *is* a DVH mechanism (timer, ICR, HLT, MMIO);
        the dispatcher uses it for the ``dvh_handled`` attribution.
        ``default`` additionally installs the handler as the fallback.
        """

        def deco(fn: L0Handler) -> L0Handler:
            for reason in reasons:
                if reason in self._l0:
                    raise ValueError(f"duplicate L0 handler for {reason}")
                self._l0[reason] = (fn, dvh_capable)
            if default:
                self._l0_default = (fn, dvh_capable)
            self._l0_table = None
            return fn

        return deco

    def register_guest(
        self,
        *reasons: ExitReason,
        profile: Optional[str] = None,
        default: bool = False,
    ) -> Callable[[GuestHandler], GuestHandler]:
        """Register a guest-hypervisor handler for ``reasons``.

        ``profile=None`` registers the base handler shared by every
        flavour; a named profile overrides the base for that flavour
        only.  ``default`` installs the handler as the base fallback.
        """

        def deco(fn: GuestHandler) -> GuestHandler:
            for reason in reasons:
                key = (reason, profile)
                if key in self._guest:
                    raise ValueError(f"duplicate guest handler for {key}")
                self._guest[key] = fn
            if default:
                self._guest_default = fn
            self._guest_tables.clear()
            return fn

        return deco

    def claim_ownership(self, reason: ExitReason, claim: OwnershipClaim) -> None:
        """A DVH feature claims routing authority over ``reason``."""
        if reason in self._claims:
            raise ValueError(f"duplicate ownership claim for {reason}")
        self._claims[reason] = claim
        self._claims_table = None
        self._gate_table = None

    def claim_grant_gate(self, reason: ExitReason, feature: str) -> None:
        """An OoH grantable ``feature`` claims the pre-routing gate for
        ``reason`` — the grant-layer analogue of :meth:`claim_ownership`,
        with the same duplicate rejection."""
        if reason in self._grant_gates:
            raise ValueError(f"duplicate grant gate for {reason}")
        self._grant_gates[reason] = feature
        self._claims_table = None
        self._gate_table = None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _build_l0_table(self) -> List[Optional[Tuple[L0Handler, bool]]]:
        default = self._l0_default
        table = [self._l0.get(reason, default) for reason in ExitReason]
        self._l0_table = table
        return table

    def l0_handler(self, reason: ExitReason) -> Tuple[L0Handler, bool]:
        table = self._l0_table
        if table is None:
            table = self._build_l0_table()
        entry = table[reason.index]
        if entry is None:
            raise DispatchTableError(f"no L0 handler for {reason}")
        return entry

    def _build_guest_table(
        self, profile_name: Optional[str]
    ) -> List[Optional[GuestHandler]]:
        guest = self._guest
        default = self._guest_default
        table = [
            guest.get((reason, profile_name))
            or guest.get((reason, None))
            or default
            for reason in ExitReason
        ]
        self._guest_tables[profile_name] = table
        return table

    def guest_handler(self, reason: ExitReason, profile: Any) -> GuestHandler:
        name = profile.name
        table = self._guest_tables.get(name)
        if table is None:
            table = self._build_guest_table(name)
        fn = table[reason.index]
        if fn is None:
            raise DispatchTableError(f"no guest handler for {reason}")
        return fn

    def validate_tables(self, profile_name: Optional[str] = None) -> None:
        """Build-time audit of the flattened dispatch tables.

        Walks the full ``ExitReason`` enum and raises
        :class:`DispatchTableError` naming every reason that would have
        ``None``-dispatched at runtime: missing L0 entries always, and
        missing guest entries when ``profile_name`` is given (a stack
        with a guest hypervisor needs both tables complete).  Called by
        :func:`repro.hv.stack.build_stack` for the active profile.
        """
        l0_table = self._l0_table
        if l0_table is None:
            l0_table = self._build_l0_table()
        missing = [
            reason.value
            for reason, entry in zip(ExitReason, l0_table)
            if entry is None
        ]
        if missing:
            raise DispatchTableError(
                f"L0 dispatch table incomplete: no handler for {missing}"
            )
        if profile_name is not None:
            guest_table = self._guest_tables.get(profile_name)
            if guest_table is None:
                guest_table = self._build_guest_table(profile_name)
            missing = [
                reason.value
                for reason, fn in zip(ExitReason, guest_table)
                if fn is None
            ]
            if missing:
                raise DispatchTableError(
                    f"guest dispatch table for profile {profile_name!r} "
                    f"incomplete: no handler for {missing}"
                )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _build_claims_table(self) -> List[Optional[OwnershipClaim]]:
        if not self._claims_installed:
            self._install_default_claims()
        claims = self._claims
        # Unclaimed reasons route statically; folding the static policy
        # into the table keeps route() a single indexed call.  Shadow-EPT
        # maintenance is the host hypervisor's job; everything else
        # (hypercalls, VMX instructions, CPUID, MSRs) goes to the VM's
        # own manager.
        table: List[Optional[OwnershipClaim]] = []
        for reason in ExitReason:
            claim = claims.get(reason)
            if claim is None:
                if reason is ExitReason.EPT_VIOLATION:
                    claim = lambda vcpu, exit_: 0
                else:
                    claim = lambda vcpu, exit_: vcpu.level - 1
            table.append(claim)
        gates = self._grant_gates
        self._gate_table = [gates.get(reason) for reason in ExitReason]
        self._claims_table = table
        return table

    def route(self, vcpu: Any, exit_: Exit) -> int:
        """Return the level of the hypervisor that must handle the exit
        (0 = the host hypervisor handles it directly)."""
        if vcpu.level == 1:
            return 0
        table = self._claims_table
        if table is None:
            table = self._build_claims_table()
        if vcpu.level == 2:
            # OoH grant gates: an active grant to the L1 guest
            # hypervisor short-circuits forwarding for its reason.  A
            # revoked or absent grant falls through to the claims —
            # graceful degradation to forwarding.  Deeper levels always
            # fall through (grants cover one guest-hypervisor level).
            feature = self._gate_table[exit_.reason.index]
            if feature is not None:
                ooh = vcpu.vm.machine.ooh
                if ooh is not None and ooh.active(feature):
                    return 0
        return table[exit_.reason.index](vcpu, exit_)

    def _install_default_claims(self) -> None:
        """Let each DVH feature module register its ownership claim.

        Deferred to first routing (rather than import time) so the
        registry module stays import-cycle-free: the feature modules may
        import :mod:`repro.hv.dispatch` for helpers.
        """
        self._claims_installed = True
        from repro.core import vidle, vipi, vpassthrough, vtimer
        from repro.ooh import grants as ooh_grants

        for feature in (vpassthrough, vtimer, vipi, vidle, ooh_grants):
            feature.register_ownership(self)


#: The process-wide registry every machine dispatches through.
DEFAULT_REGISTRY = ExitHandlerRegistry()
