"""Out-of-Hypervisor (OoH) feature grants.

DVH (the source paper) attacks nested-virtualization overhead from
below: L0 gives the *nested VM* direct virtual hardware so its exits
never need the guest hypervisor.  The Out-of-Hypervisor approach attacks
the same overhead from the opposite side: L0 selectively exposes
hardware virtualization features *directly to the L1 guest hypervisor*,
so the guest hypervisor programs the real feature and its exits are
handled at single-level cost — forwarding never happens for granted
features.

This package supplies:

* :class:`~repro.ooh.grants.GrantSet` — the declarative per-feature
  grant configuration (validated at stack-build time);
* :class:`~repro.ooh.grants.GrantTable` — the runtime grant state hung
  off ``machine.ooh`` (revocable mid-run; revoked features fall back to
  forwarding, counted);
* :mod:`repro.ooh.pricing` — the granted-vs-forwarded cycle pricing for
  dirty-page tracking during live pre-copy migration.

:data:`~repro.ooh.grants.GATED_REASONS` fills the grant-gate table of
the exit dispatch (:class:`repro.hv.dispatch.ExitHandlerRegistry`): the
one layer consulted before the DVH owners decide where an exit goes.
"""

from repro.ooh.grants import (
    GATED_REASONS,
    OOH_FEATURES,
    GrantConflictError,
    GrantError,
    GrantSet,
    GrantTable,
    UnknownGrantError,
)
from repro.ooh.pricing import (
    PML_BUFFER_ENTRIES,
    dirty_tracking_cycles,
    forwarded_dirty_page_cycles,
    granted_dirty_page_cycles,
)

__all__ = [
    "GATED_REASONS",
    "OOH_FEATURES",
    "GrantConflictError",
    "GrantError",
    "GrantSet",
    "GrantTable",
    "UnknownGrantError",
    "PML_BUFFER_ENTRIES",
    "dirty_tracking_cycles",
    "forwarded_dirty_page_cycles",
    "granted_dirty_page_cycles",
]
