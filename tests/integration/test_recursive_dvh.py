"""Integration: recursive DVH (§3.5) — enable-bit AND-combining across
three virtualization levels, and recursive virtual-passthrough."""

from repro.core.features import DvhFeatures
from repro.hv.stack import StackConfig, build_stack


def build_l3_dvh():
    stack = build_stack(StackConfig(levels=3, io_model="vp", dvh=DvhFeatures.full()))
    stack.settle()
    return stack


def timer_owner(stack):
    """Where does L0 route the leaf's timer access?"""
    leaf = stack.ctx(0)
    from repro.hw.ops import Exit, ExitReason, Op

    exit_ = Exit(
        reason=ExitReason.APIC_TIMER,
        op=Op.WRMSR,
        from_level=leaf.level,
        info={"deadline": 10**9},
        vcpu=leaf,
    )
    return stack.machine.host_hv.registry.route(leaf, exit_)


def test_all_enabled_routes_to_l0():
    stack = build_l3_dvh()
    assert timer_owner(stack) == 0


def test_and_rule_level2_disable():
    """Clear the bit the L2 hypervisor set for the L3 VM: the L2
    hypervisor must emulate."""
    stack = build_l3_dvh()
    for vcpu in stack.vms[2].vcpus:
        vcpu.vmcs.controls.virtual_timer_enable = False
    assert timer_owner(stack) == 2


def test_and_rule_level1_disable():
    """Clear the bit the L1 hypervisor set for the L2 VM: forwarding
    stops at the L1 hypervisor."""
    stack = build_l3_dvh()
    for vcpu in stack.vms[1].vcpus:
        vcpu.vmcs.controls.virtual_timer_enable = False
    assert timer_owner(stack) == 1


def test_recursive_vp_only_l1_viommu_used_at_dma_time():
    """Figure 6: multiple virtual IOMMUs configure the assignment, but
    only the L1 vIOMMU's shadow table is used when the device DMAs."""
    stack = build_l3_dvh()
    assignment = stack.vp_assignment
    assert len(assignment.viommus) == 2
    outer = assignment.viommus[0]  # the L0-provided (L1-level) vIOMMU
    assert outer.shadow_tables[assignment.device.bdf] is assignment.shadow


def test_recursive_virtual_idle_all_levels_cleared():
    stack = build_l3_dvh()
    for vm in stack.vms[1:]:
        assert not any(v.vmcs.controls.hlt_exiting for v in vm.vcpus)


def test_recursive_capability_re_exposure():
    """Each guest hypervisor re-exposes the virtual hardware it
    discovered to the next level (§3.5)."""
    stack = build_l3_dvh()
    assert stack.hvs[1].capability.virtual_timer
    assert stack.hvs[2].capability.virtual_timer


def test_l3_workload_end_to_end_with_full_dvh():
    """Sanity: an L3 workload completes with DVH and stays near VM-level
    overhead."""
    from repro.workloads.apps import run_app

    native = build_stack(StackConfig(levels=0, io_model="native"))
    base = run_app(native, "netperf_rr", scale=0.2)
    stack = build_l3_dvh()
    r = run_app(stack, "netperf_rr", scale=0.2)
    assert r.overhead_vs(base) < 2.5
