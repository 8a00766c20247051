"""Tests for exit routing: who owns which exit (the heart of DVH)."""

import pytest

from repro.core.features import DvhFeatures
from repro.hv.stack import StackConfig, build_stack
from repro.hw.ops import Op


def make(levels=2, io="virtio", dvh=None, **kw):
    stack = build_stack(
        StackConfig(levels=levels, io_model=io, dvh=dvh or DvhFeatures.none(), **kw)
    )
    stack.settle()
    return stack


def run_op(stack, gen):
    before = stack.metrics.copy()
    stack.sim.run_process(gen)
    return stack.metrics.diff(before)


# ----------------------------------------------------------------------
# Non-DVH routing
# ----------------------------------------------------------------------
def test_l1_ops_never_forwarded():
    stack = make(levels=1)
    ctx = stack.ctx(0)

    def ops():
        yield from ctx.execute(Op.VMCALL)
        yield from ctx.program_timer(ctx.read_tsc() + 10**9)
        yield from ctx.send_ipi(1, 0xFD)

    delta = run_op(stack, ops())
    assert delta.guest_hv_interventions() == 0
    assert delta.exits_from_level(1) == 3


def test_nested_timer_owned_by_manager():
    stack = make(levels=2)
    ctx = stack.ctx(0)
    delta = run_op(stack, ctx.program_timer(ctx.read_tsc() + 10**9))
    assert delta.forwards[(2, "apic_timer", 1)] == 1


def test_l3_timer_owned_by_l2_not_l1():
    """The regression that motivated the §3.5 walk direction: an L3
    guest's timer is emulated by ITS manager (the L2 hypervisor)."""
    stack = make(levels=3)
    ctx = stack.ctx(0)
    delta = run_op(stack, ctx.program_timer(ctx.read_tsc() + 10**9))
    assert delta.forwards[(3, "apic_timer", 2)] == 1
    # ...whose own emulation traps through L1: exit multiplication.
    assert delta.exits_from_level(2) > 5
    assert delta.exits_from_level(1) > 50


def test_nested_hypercall_forwarded_even_with_dvh():
    stack = make(levels=2, io="vp", dvh=DvhFeatures.full())
    ctx = stack.ctx(0)
    delta = run_op(stack, ctx.execute(Op.VMCALL))
    assert delta.forwards[(2, "vmcall", 1)] == 1
    assert delta.dvh_handled.get("vmcall") is None


# ----------------------------------------------------------------------
# DVH routing
# ----------------------------------------------------------------------
def test_dvh_timer_handled_by_l0_single_exit():
    stack = make(levels=2, io="vp", dvh=DvhFeatures.full())
    ctx = stack.ctx(0)
    delta = run_op(stack, ctx.program_timer(ctx.read_tsc() + 10**9))
    assert delta.guest_hv_interventions() == 0
    assert delta.exits[(2, "apic_timer")] == 1
    assert delta.dvh_handled["apic_timer"] == 1


def test_dvh_timer_at_l3_still_single_exit():
    stack = make(levels=3, io="vp", dvh=DvhFeatures.full())
    ctx = stack.ctx(0)
    delta = run_op(stack, ctx.program_timer(ctx.read_tsc() + 10**9))
    assert delta.guest_hv_interventions() == 0
    assert delta.total_exits() == 1


def test_dvh_ipi_handled_by_l0():
    stack = make(levels=2, io="vp", dvh=DvhFeatures.full())
    ctx = stack.ctx(0)
    delta = run_op(stack, ctx.send_ipi(1, 0xFD))
    assert delta.forwards_to_level(1) == 0
    assert delta.dvh_handled["apic_icr"] == 1


def test_dvh_vp_doorbell_handled_by_l0():
    stack = make(levels=2, io="vp", dvh=DvhFeatures.vp_only())
    ctx = stack.ctx(0)
    device = stack.net.device

    def kick():
        yield from ctx.execute(
            Op.MMIO_WRITE, addr=device.notify_addr, value=1, device=device
        )

    delta = run_op(stack, kick())
    assert delta.guest_hv_interventions() == 0
    assert delta.dvh_handled["mmio"] == 1


def test_nested_virtio_doorbell_owned_by_provider():
    stack = make(levels=2, io="virtio")
    ctx = stack.ctx(0)
    device = stack.net.device
    assert device.provider_level == 1

    def kick():
        yield from ctx.execute(
            Op.MMIO_WRITE, addr=device.notify_addr, value=1, device=device
        )

    delta = run_op(stack, kick())
    assert delta.forwards[(2, "mmio", 1)] == 1


def test_virtual_idle_hlt_goes_to_l0():
    stack = make(levels=2, io="vp", dvh=DvhFeatures.full())
    ctx = stack.ctx(0)
    # Deliver an interrupt shortly so the halt wakes.
    stack.sim.call_after(50_000, lambda: (ctx.lapic.set_irr(0x33), ctx.pcpu.wake()))
    delta = run_op(stack, ctx.wait_for_interrupt())
    assert delta.forwards_to_level(1) == 0
    assert delta.dvh_handled["hlt"] == 1


def test_hlt_without_dvh_forwarded():
    stack = make(levels=2, io="virtio")
    ctx = stack.ctx(0)
    stack.sim.call_after(200_000, lambda: (ctx.lapic.set_irr(0x33), ctx.pcpu.wake()))
    delta = run_op(stack, ctx.wait_for_interrupt())
    assert delta.forwards[(2, "hlt", 1)] >= 1


# ----------------------------------------------------------------------
# §3.5: partial recursive enablement
# ----------------------------------------------------------------------
def test_partial_dvh_enable_walk():
    """If the innermost hypervisor didn't enable virtual timers for its
    guest, it must emulate them itself, even when deeper levels would."""
    stack = make(levels=3, io="vp", dvh=DvhFeatures.full())
    ctx = stack.ctx(0)
    # Clear the enable bit that the L2 hypervisor set for the L3 VM.
    for vcpu in stack.vms[2].vcpus:
        vcpu.vmcs.controls.virtual_timer_enable = False
    delta = run_op(stack, ctx.program_timer(ctx.read_tsc() + 10**9))
    assert delta.forwards[(3, "apic_timer", 2)] == 1


def test_partial_dvh_outer_disable():
    """If the L1 hypervisor didn't enable the virtual timer for its
    guest, it emulates nested timer accesses (the §3.5 AND collapses)."""
    stack = make(levels=3, io="vp", dvh=DvhFeatures.full())
    ctx = stack.ctx(0)
    for vcpu in stack.vms[1].vcpus:
        vcpu.vmcs.controls.virtual_timer_enable = False
    delta = run_op(stack, ctx.program_timer(ctx.read_tsc() + 10**9))
    assert delta.forwards[(3, "apic_timer", 1)] == 1


def test_exit_multiplication_counts_match_structure():
    """One forwarded exit produces exactly the handler's trapped ops as
    L1 exits (reads + writes + VMRESUME) plus the original L2 exit."""
    stack = make(levels=2)
    ctx = stack.ctx(0)
    delta = run_op(stack, ctx.execute(Op.VMCALL))
    hv1 = stack.hvs[1]
    reads, writes = hv1.op_counts(
        __import__("repro.hw.ops", fromlist=["ExitReason"]).ExitReason.VMCALL
    )
    assert delta.exits_from_level(1) == reads + writes + 1  # +1 VMRESUME
    assert delta.exits_from_level(2) == 1


def _l3_exits_by_level(dvh, op):
    """Exits per guest level caused by one op of the L3 vCPU, measured
    when the op returns (not after the timer it arms fires)."""
    stack = make(levels=3, io="vp" if dvh.virtual_passthrough else "virtio", dvh=dvh)
    ctx = stack.ctx(0)
    before = stack.metrics.copy()
    by_level = {}

    def one():
        if op == "hypercall":
            yield from ctx.execute(Op.VMCALL)
        else:
            yield from ctx.program_timer(ctx.read_tsc() + 10**7)
        delta = stack.metrics.diff(before)
        by_level.update({lvl: delta.exits_from_level(lvl) for lvl in (1, 2, 3)})

    stack.sim.run_process(one())
    return by_level


@pytest.mark.parametrize(
    "dvh, op, expected",
    [
        (DvhFeatures.none(), "hypercall", {3: 1, 2: 17, 1: 314}),
        (DvhFeatures.none(), "timer", {3: 1, 2: 20, 1: 370}),
        (DvhFeatures.full(), "timer", {3: 1, 2: 0, 1: 0}),
    ],
    ids=["hypercall", "timer-no-dvh", "timer-dvh"],
)
def test_l3_exit_multiplication_matches_docs(dvh, op, expected):
    """The per-level counts README and docs/architecture.md quote (one L3
    hypercall is 332 hardware exits); a host-time optimisation of the
    trap path must not merge or skip any of them."""
    assert _l3_exits_by_level(dvh, op) == expected
