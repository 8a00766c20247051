"""Edge-case tests for hypervisor internals."""

import pytest

from repro.core.features import DvhFeatures
from repro.hv.kvm import KvmHypervisor
from repro.hv.stack import StackConfig, build_stack
from repro.hw.machine import Machine
from repro.hw.ops import ExitReason, Op
from repro.hw.vmx import ExecControl
from tests.exits import make_exit


def test_constructor_level_vm_consistency():
    machine = Machine(num_cpus=4)
    with pytest.raises(ValueError):
        KvmHypervisor(machine, level=1, vm=None)  # guest hv needs a VM
    l0 = KvmHypervisor(machine, level=0)
    vm = l0.create_vm("g", memory_bytes=1 << 30)
    with pytest.raises(ValueError):
        KvmHypervisor(machine, level=0, vm=vm)  # host hv has no VM


def test_create_vm_level_increments():
    machine = Machine(num_cpus=4)
    l0 = KvmHypervisor(machine, level=0)
    vm = l0.create_vm("g", memory_bytes=1 << 30)
    assert vm.level == 1
    assert vm.manager is l0
    assert vm in l0.guests


def test_op_counts_without_shadowing_conserve_total():
    stack = build_stack(StackConfig(levels=2, vmcs_shadowing=False))
    hv = stack.hvs[1]
    costs = stack.machine.costs
    for reason in (ExitReason.VMCALL, ExitReason.MMIO):
        reads, writes = hv.op_counts(reason)
        assert reads + writes == costs.ghv_vmcs_unshadowed_total


def test_host_controls_reflect_capability():
    stack = build_stack(StackConfig(levels=1))
    ctl = stack.hvs[0]._host_controls()
    assert isinstance(ctl, ExecControl)
    assert ctl.hlt_exiting
    assert ctl.posted_interrupts


def test_expose_capability_copies_not_aliases():
    stack = build_stack(StackConfig(levels=2, io_model="vp", dvh=DvhFeatures.full()))
    l0, hv1 = stack.hvs
    hv1.capability.virtual_timer = False
    assert l0.dvh.virtual_timer  # L0's provisioning unaffected


def test_dispatch_exit_only_at_l0():
    stack = build_stack(StackConfig(levels=2))
    hv1 = stack.hvs[1]
    leaf = stack.ctx(0)
    exit_ = make_exit(leaf, Op.VMCALL, {})
    with pytest.raises(AssertionError):
        # Guest hypervisors never take hardware exits directly (§2).
        next(hv1.dispatch_exit(leaf, exit_))


def test_dvh_route_check_charged_only_for_nested():
    """L1 exits skip the DVH control check (nothing to consult)."""
    stack = build_stack(StackConfig(levels=1, dvh=DvhFeatures.full()))
    ctx = stack.ctx(0)
    before = dict(stack.metrics.cycles)

    def op():
        yield from ctx.execute(Op.VMCALL)

    stack.sim.run_process(op())
    charged = stack.metrics.cycles["l0_emul"] - before.get("l0_emul", 0)
    costs = stack.machine.costs
    assert charged == costs.l0_dispatch + costs.emul_hypercall


def test_msr_write_generic_reason():
    stack = build_stack(StackConfig(levels=1))
    ctx = stack.ctx(0)

    def op():
        yield from ctx.execute(Op.WRMSR, msr=0x123)

    stack.sim.run_process(op())
    assert stack.metrics.exits[(1, "msr_write")] == 1


def test_cpuid_and_invept_emulated():
    stack = build_stack(StackConfig(levels=1))
    ctx = stack.ctx(0)

    def ops():
        yield from ctx.execute(Op.CPUID)
        yield from ctx.execute(Op.INVEPT)

    stack.sim.run_process(ops())
    assert stack.metrics.exits[(1, "cpuid")] == 1
    assert stack.metrics.exits[(1, "vmx")] == 1


def test_notify_only_icr_from_l2_forwarded_to_l1():
    """Figure 4 step 4 in the nested-backend case: an L2 hypervisor
    asking for a posted-interrupt notification goes through L1."""
    stack = build_stack(StackConfig(levels=3))
    stack.settle()
    l2_ctx = stack.ctx(0).chain_vcpu(2)
    target = stack.ctx(1)

    def op():
        yield from stack.hvs[2].inject_interrupt(l2_ctx, target, 0x50)

    before = stack.metrics.copy()
    stack.sim.run_process(op())
    delta = stack.metrics.diff(before)
    assert delta.forwards[(2, "apic_icr", 1)] == 1
    assert 0x50 in target.pi_desc.pir or 0x50 in target.lapic.irr


def test_wake_target_reports_halt_state():
    stack = build_stack(StackConfig(levels=1))
    ctx = stack.ctx(0)
    ctx.pcpu.block()
    assert stack.hvs[0].wake_target(ctx)  # was halted
    # Waking a running CPU reports False but latches the wakeup...
    assert not stack.hvs[0].wake_target(ctx)
    # ...so the next halt attempt returns immediately (no lost wakeup).
    ev = ctx.pcpu.block()
    assert ev.triggered


def test_hlt_with_pending_interrupt_does_not_block():
    stack = build_stack(StackConfig(levels=1))
    stack.settle()
    ctx = stack.ctx(0)
    ctx.lapic.set_irr(0x30)

    def op():
        return (yield from ctx.wait_for_interrupt())

    vector = stack.sim.run_process(op())
    assert vector == 0x30
    assert not ctx.pcpu.halted
