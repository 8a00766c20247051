"""OoH grant declarations and runtime grant state.

A :class:`GrantSet` names the hardware virtualization features L0 hands
directly to the L1 guest hypervisor:

=================  ====================================================
dirty_logging      Write-protection dirty-page tracking: the guest
                   hypervisor's pre-copy dirty faults are fixed at L0
                   in one round trip instead of a forwarded exit chain.
dirty_ring         The PML-style variant: hardware logs dirty GPAs into
                   a buffer the guest hypervisor drains; only buffer
                   flushes exit at all.  Mutually exclusive with
                   ``dirty_logging`` (they drive the same EPT state).
posted_interrupts  The guest hypervisor drives the real
                   posted-interrupt machinery: its injections into
                   nested vCPUs need no trapped ICR write, and a nested
                   VM's ICR writes are applied at L0 at flat cost.
timer_deadline     The guest hypervisor owns a real TSC-deadline timer
                   slot: a nested VM's timer programs are applied at L0
                   at flat cost with no per-level VMCS walk.
=================  ====================================================

Grants are *exposed to the L1 guest hypervisor only*; exits from
level-2 vCPUs short-circuit through the grant gates in
:meth:`repro.hv.dispatch.ExitHandlerRegistry.route`.  Deeper levels
fall back to ordinary forwarding (a documented simplification: the OoH
papers target one guest-hypervisor level).

Misconfiguration is rejected at stack-build time with typed errors;
revocation mid-run (operator action or the ``ooh_grant_revoke`` fault
class) downgrades the feature to forwarding, counted in metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.hw.ops import ExitReason

__all__ = [
    "OOH_FEATURES",
    "GATED_REASONS",
    "GrantError",
    "UnknownGrantError",
    "GrantConflictError",
    "GrantSet",
    "GrantTable",
]

#: Every grantable feature, in declaration order.
OOH_FEATURES: Tuple[str, ...] = (
    "dirty_logging",
    "dirty_ring",
    "posted_interrupts",
    "timer_deadline",
)

#: Exit reasons gated by a grant: a level-2 exit for a gated reason is
#: handled by L0 at flat cost while the named feature's grant is active.
#: The dirty-tracking grants have no exit reason of their own — they are
#: priced at the migration dirty-log drain sites (see repro.ooh.pricing).
GATED_REASONS: Dict[ExitReason, str] = {
    ExitReason.APIC_TIMER: "timer_deadline",
    ExitReason.APIC_ICR: "posted_interrupts",
}


class GrantError(ValueError):
    """Base class for OoH grant misconfiguration."""


class UnknownGrantError(GrantError):
    """A grant name outside :data:`OOH_FEATURES`."""


class GrantConflictError(GrantError):
    """A grant combination the platform cannot honor (grant vs grant,
    grant vs DVH mechanism, or grant vs stack shape)."""


@dataclass(frozen=True, slots=True)
class GrantSet:
    """Declarative per-feature grants to the L1 guest hypervisor."""

    dirty_logging: bool = False
    dirty_ring: bool = False
    posted_interrupts: bool = False
    timer_deadline: bool = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "GrantSet":
        return cls()

    @classmethod
    def migration(cls) -> "GrantSet":
        """Just dirty logging: the live-migration grant."""
        return cls(dirty_logging=True)

    @classmethod
    def full(cls) -> "GrantSet":
        """Every mutually compatible grant (dirty_ring supersedes
        dirty_logging as the cheaper tracking mode)."""
        return cls(dirty_ring=True, posted_interrupts=True, timer_deadline=True)

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "GrantSet":
        """Build from grant names; unknown names raise
        :class:`UnknownGrantError`."""
        values = {}
        for name in names:
            if name not in OOH_FEATURES:
                raise UnknownGrantError(
                    f"unknown OoH grant {name!r}; choose from {OOH_FEATURES}"
                )
            values[name] = True
        return cls(**values)

    def with_(self, **overrides: bool) -> "GrantSet":
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        """Granted feature names, in declaration order."""
        return tuple(f.name for f in fields(self) if getattr(self, f.name))

    @property
    def any_granted(self) -> bool:
        return any(getattr(self, f.name) for f in fields(self))

    # ------------------------------------------------------------------
    # Build-time validation
    # ------------------------------------------------------------------
    def validate(self, levels: int, io_model: str, dvh) -> None:
        """Reject combinations the platform cannot honor.

        Called from :meth:`repro.hv.stack.StackConfig.validate`, so a
        misconfigured grant never reaches a built stack.
        """
        if not self.any_granted:
            return
        if levels < 2:
            raise GrantConflictError(
                "OoH grants target the L1 guest hypervisor; the stack "
                f"needs >= 2 levels, got {levels}"
            )
        if self.dirty_logging and self.dirty_ring:
            raise GrantConflictError(
                "dirty_logging and dirty_ring drive the same EPT "
                "dirty-tracking state; grant one, not both"
            )
        if self.timer_deadline and getattr(dvh, "virtual_timer", False):
            raise GrantConflictError(
                "timer_deadline grant collides with the DVH virtual "
                "timer: both claim the APIC_TIMER exit"
            )
        if self.posted_interrupts and getattr(dvh, "virtual_ipi", False):
            raise GrantConflictError(
                "posted_interrupts grant collides with the DVH virtual "
                "IPI: both claim the APIC_ICR exit"
            )
        if (self.dirty_logging or self.dirty_ring) and io_model == "passthrough":
            raise GrantConflictError(
                "dirty-tracking grants cannot cover a hardware-coupled "
                "passthrough tenant: device DMA bypasses the granted log"
            )


class GrantTable:
    """Runtime grant state for one machine (hung off ``machine.ooh``).

    Tracks which configured grants are currently *active*: a grant
    revoked mid-run (operator action, or the ``ooh_grant_revoke`` fault
    class) stays configured — so its exits keep being attributed — but
    routes fall back to forwarding, and the revocation is counted.
    """

    def __init__(self, grants: Optional[GrantSet] = None, metrics=None) -> None:
        self._configured: Set[str] = set(grants.names()) if grants else set()
        self._active: Set[str] = set(self._configured)
        self.metrics = metrics
        #: Grants revoked so far (each revocation counted once).
        self.revocations = 0

    # ------------------------------------------------------------------
    def install(self, grants: GrantSet) -> None:
        """Merge more grants in (cluster hosts accumulate per-tenant
        grants onto one shared machine)."""
        for name in grants.names():
            self._configured.add(name)
            self._active.add(name)

    def configured(self, feature: str) -> bool:
        return feature in self._configured

    def active(self, feature: str) -> bool:
        return feature in self._active

    def revoke(self, feature: str) -> bool:
        """Revoke a grant; returns whether it was active.  Subsequent
        exits for the feature fall back to forwarding."""
        was_active = feature in self._active
        self._active.discard(feature)
        if was_active:
            self.revocations += 1
        return was_active

    def restore(self, feature: str) -> None:
        """Re-activate a configured (previously revoked) grant."""
        if feature in self._configured:
            self._active.add(feature)

    def configured_names(self) -> Tuple[str, ...]:
        return tuple(f for f in OOH_FEATURES if f in self._configured)

    def active_names(self) -> Tuple[str, ...]:
        return tuple(f for f in OOH_FEATURES if f in self._active)

    # ------------------------------------------------------------------
    def feature_for(self, reason: ExitReason) -> Optional[str]:
        """The configured grant gating ``reason``, or None.  Returns the
        feature even when revoked, so fallback exits stay attributed."""
        feature = GATED_REASONS.get(reason)
        if feature is not None and feature in self._configured:
            return feature
        return None

    def dirty_mode(self) -> Optional[str]:
        """The active dirty-tracking grant ("dirty_ring" wins when both
        are somehow active), or None when tracking must be forwarded."""
        if "dirty_ring" in self._active:
            return "dirty_ring"
        if "dirty_logging" in self._active:
            return "dirty_logging"
        return None

    def dirty_feature(self) -> str:
        """The dirty-tracking feature name attribution should use,
        whether or not its grant is (still) active."""
        if "dirty_ring" in self._configured:
            return "dirty_ring"
        return "dirty_logging"

    def record(self, feature: str, granted: bool, n: int = 1) -> None:
        """Attribute ``n`` exits (or dirty pages) to the feature's
        granted or forwarded bucket."""
        if self.metrics is not None:
            self.metrics.record_ooh(feature, granted, n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GrantTable active={sorted(self._active)} "
            f"configured={sorted(self._configured)}>"
        )
