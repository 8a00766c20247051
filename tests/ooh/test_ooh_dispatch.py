"""Granted vs forwarded exit dispatch: the grant gates short-circuit
level-2 exits to L0 at flat cost, fall back to forwarding on
revocation, and attribute both outcomes in metrics."""

from repro.hv.kvm import DEFAULT_REGISTRY
from repro.hv.stack import StackConfig, build_stack
from repro.hw.lapic import IPI_RESCHEDULE_VECTOR, TIMER_VECTOR
from repro.hw.ops import MSR_X2APIC_ICR, ExitReason, Op
from repro.ooh.grants import GrantSet
from repro.workloads.microbench import run_microbenchmark


def _icr_exit(leaf, dest=1, vector=32):
    return leaf._make_exit(
        Op.WRMSR, {"msr": MSR_X2APIC_ICR, "dest": dest, "vector": vector}
    )


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_active_gate_short_circuits_level2_routing():
    stack = build_stack(
        StackConfig(levels=2, ooh=GrantSet(posted_interrupts=True))
    )
    leaf = stack.ctx(0)
    exit_ = _icr_exit(leaf)
    assert exit_.reason is ExitReason.APIC_ICR
    assert DEFAULT_REGISTRY.route(leaf, exit_) == 0


def test_revoked_gate_falls_back_to_forwarding():
    stack = build_stack(
        StackConfig(levels=2, ooh=GrantSet(posted_interrupts=True))
    )
    leaf = stack.ctx(0)
    stack.machine.ooh.revoke("posted_interrupts")
    assert DEFAULT_REGISTRY.route(leaf, _icr_exit(leaf)) == 1
    # Restoring the grant re-arms the short-circuit.
    stack.machine.ooh.restore("posted_interrupts")
    assert DEFAULT_REGISTRY.route(leaf, _icr_exit(leaf)) == 0


def test_gates_cover_one_guest_hypervisor_level_only():
    """A level-3 vCPU's gated exit still forwards: OoH grants target the
    L1 guest hypervisor (the documented simplification)."""
    stack = build_stack(
        StackConfig(levels=3, ooh=GrantSet(posted_interrupts=True))
    )
    leaf = stack.ctx(0)
    assert leaf.level == 3
    assert DEFAULT_REGISTRY.route(leaf, _icr_exit(leaf)) == 2


def test_ungranted_machine_routes_unchanged():
    stack = build_stack(StackConfig(levels=2))
    assert stack.machine.ooh is None
    leaf = stack.ctx(0)
    assert DEFAULT_REGISTRY.route(leaf, _icr_exit(leaf)) == 1


# ----------------------------------------------------------------------
# End-to-end: granted exits are cheap and attributed
# ----------------------------------------------------------------------
def test_granted_timer_is_flat_cost_and_attributed():
    granted_stack = build_stack(
        StackConfig(levels=2, ooh=GrantSet(timer_deadline=True))
    )
    forwarded_stack = build_stack(StackConfig(levels=2, ooh=GrantSet.none()))
    granted = run_microbenchmark(granted_stack, "ProgramTimer", 10)
    forwarded = run_microbenchmark(forwarded_stack, "ProgramTimer", 10)
    assert granted < forwarded / 5
    g, f = granted_stack.metrics.ooh_split("timer_deadline")
    assert g >= 10 and f == 0
    # The empty grant layer attributes nothing (feature not configured).
    assert forwarded_stack.metrics.ooh_split() == (0, 0)


def test_granted_exits_charge_the_ooh_category():
    stack = build_stack(
        StackConfig(levels=2, ooh=GrantSet(timer_deadline=True))
    )
    run_microbenchmark(stack, "ProgramTimer", 10)
    assert stack.metrics.cycles.get("ooh_emul", 0) > 0


def test_mid_run_revocation_degrades_gracefully():
    """Revoking a grant between runs downgrades the same stack to
    forwarding — and the forwarded exits stay attributed to the
    (configured, inactive) feature."""
    stack = build_stack(
        StackConfig(levels=2, ooh=GrantSet(timer_deadline=True))
    )
    ctx = stack.ctx(0)
    sim = stack.sim
    far = sim.cycles(0.05)

    def one_program():
        yield from ctx.program_timer(ctx.read_tsc() + far, TIMER_VECTOR)

    sim.run_process(one_program(), "granted-program")
    g0, f0 = stack.metrics.ooh_split("timer_deadline")
    assert g0 >= 1 and f0 == 0
    stack.machine.ooh.revoke("timer_deadline")
    sim.run_process(one_program(), "forwarded-program")
    g1, f1 = stack.metrics.ooh_split("timer_deadline")
    assert g1 == g0  # no new granted exits
    assert f1 >= 1  # fallback still attributed


def test_granted_send_ipi_delivers():
    """The posted_interrupts grant must still deliver the IPI (flat
    cost is worthless if the destination never wakes)."""
    stack = build_stack(
        StackConfig(levels=2, ooh=GrantSet(posted_interrupts=True))
    )
    cycles = run_microbenchmark(stack, "SendIPI", 5)
    assert cycles > 0
    g, _f = stack.metrics.ooh_split("posted_interrupts")
    assert g >= 5
    assert IPI_RESCHEDULE_VECTOR  # vector constant stays importable
