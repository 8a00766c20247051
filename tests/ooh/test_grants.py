"""Tests for the OoH grant layer: declarative grant sets, build-time
misconfiguration rejection, and runtime grant-table state."""

import pytest

from repro.core import vipi, vtimer
from repro.core.features import DvhFeatures
from repro.hv.kvm import DEFAULT_REGISTRY
from repro.hv.stack import StackConfig, build_stack
from repro.hw.ops import ExitReason
from repro.ooh.grants import (
    GATED_REASONS,
    OOH_FEATURES,
    GrantConflictError,
    GrantSet,
    GrantTable,
    UnknownGrantError,
)


# ----------------------------------------------------------------------
# GrantSet construction
# ----------------------------------------------------------------------
def test_from_names_round_trips():
    grants = GrantSet.from_names(["dirty_logging", "timer_deadline"])
    assert grants.names() == ("dirty_logging", "timer_deadline")
    assert grants.any_granted


def test_from_names_rejects_unknown():
    with pytest.raises(UnknownGrantError, match="pml"):
        GrantSet.from_names(["pml"])


def test_preset_constructors():
    assert not GrantSet.none().any_granted
    assert GrantSet.migration().names() == ("dirty_logging",)
    full = GrantSet.full()
    assert full.dirty_ring and not full.dirty_logging
    assert full.posted_interrupts and full.timer_deadline


# ----------------------------------------------------------------------
# Build-time validation (each misconfiguration gets a typed error)
# ----------------------------------------------------------------------
def test_validate_requires_a_guest_hypervisor_level():
    with pytest.raises(GrantConflictError, match="levels"):
        GrantSet.migration().validate(1, "virtio", DvhFeatures())


def test_validate_rejects_both_dirty_modes():
    grants = GrantSet(dirty_logging=True, dirty_ring=True)
    with pytest.raises(GrantConflictError, match="dirty"):
        grants.validate(2, "virtio", DvhFeatures())


def test_validate_rejects_timer_grant_vs_dvh_virtual_timer():
    grants = GrantSet(timer_deadline=True)
    with pytest.raises(GrantConflictError, match="timer"):
        grants.validate(2, "vp", DvhFeatures.full())


def test_validate_rejects_pi_grant_vs_dvh_virtual_ipi():
    grants = GrantSet(posted_interrupts=True)
    with pytest.raises(GrantConflictError, match="IPI"):
        grants.validate(2, "vp", DvhFeatures.full())


def test_validate_rejects_dirty_tracking_on_passthrough():
    with pytest.raises(GrantConflictError, match="passthrough"):
        GrantSet.migration().validate(2, "passthrough", DvhFeatures())


def test_empty_grant_set_validates_anywhere():
    GrantSet.none().validate(0, "native", DvhFeatures())


def test_stack_build_rejects_misconfigured_grants():
    with pytest.raises(GrantConflictError):
        build_stack(StackConfig(levels=1, ooh=GrantSet.full()))
    with pytest.raises(GrantConflictError):
        build_stack(
            StackConfig(
                levels=2, io_model="vp", dvh=DvhFeatures.full(),
                ooh=GrantSet(timer_deadline=True),
            )
        )


def test_stack_build_installs_grant_table_and_capability_bits():
    stack = build_stack(StackConfig(levels=2, ooh=GrantSet.full()))
    ooh = stack.machine.ooh
    assert isinstance(ooh, GrantTable)
    assert all(ooh.active(name) for name in GrantSet.full().names())
    # Grants surface to the L1 guest hypervisor as capability bits.
    assert stack.hvs[1].capability.ooh_grants == ooh.configured_names()


# ----------------------------------------------------------------------
# GrantTable runtime state
# ----------------------------------------------------------------------
def test_revoke_downgrades_but_stays_configured():
    table = GrantTable(GrantSet.full())
    assert table.revoke("timer_deadline")
    assert not table.active("timer_deadline")
    assert "timer_deadline" in table.configured_names()
    assert table.revocations == 1
    # Revoking an already-revoked grant is not a second revocation.
    assert not table.revoke("timer_deadline")
    assert table.revocations == 1
    table.restore("timer_deadline")
    assert table.active("timer_deadline")


def test_restore_ignores_never_configured_features():
    table = GrantTable(GrantSet.migration())
    table.restore("posted_interrupts")
    assert not table.active("posted_interrupts")


def test_install_accumulates_grants():
    table = GrantTable(GrantSet.none())
    table.install(GrantSet.migration())
    table.install(GrantSet(posted_interrupts=True))
    assert table.configured_names() == ("dirty_logging", "posted_interrupts")
    assert table.active("dirty_logging") and table.active("posted_interrupts")


def test_feature_for_attributes_even_when_revoked():
    table = GrantTable(GrantSet(posted_interrupts=True))
    assert table.feature_for(ExitReason.APIC_ICR) == "posted_interrupts"
    table.revoke("posted_interrupts")
    # Still attributed (as forwarded) — the grant is configured.
    assert table.feature_for(ExitReason.APIC_ICR) == "posted_interrupts"
    # Never configured: no attribution at all.
    assert table.feature_for(ExitReason.APIC_TIMER) is None


def test_dirty_mode_follows_active_state():
    table = GrantTable(GrantSet(dirty_ring=True))
    assert table.dirty_mode() == "dirty_ring"
    table.revoke("dirty_ring")
    assert table.dirty_mode() is None
    assert table.dirty_feature() == "dirty_ring"  # attribution unchanged


# ----------------------------------------------------------------------
# Grant gates in the exit tables
# ----------------------------------------------------------------------
def test_gates_coexist_with_dvh_ownership_claims():
    """The grant gate is a pre-routing layer, not a second owner: a gated
    reason keeps its DVH owner for when the grant is absent or revoked."""
    gates = DEFAULT_REGISTRY.gates
    assert {r: gates[r.index] for r in ExitReason if gates[r.index]} == GATED_REASONS
    owners = DEFAULT_REGISTRY.owners
    assert owners[ExitReason.APIC_TIMER.index] is vtimer.exit_owner
    assert owners[ExitReason.APIC_ICR.index] is vipi.exit_owner


def test_every_gated_reason_names_a_real_feature():
    for feature in GATED_REASONS.values():
        assert feature in OOH_FEATURES
