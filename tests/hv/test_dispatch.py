"""Tests for the dispatch core: ExitContext chains, the fixed exit
tables (handlers and owners), and the declarative hypervisor profiles."""

import pytest

from repro.core.features import DvhFeatures
from repro.hv.dispatch import ExitContext
from repro.hv.kvm import DEFAULT_REGISTRY, KvmHypervisor
from repro.hv.profiles import KVM_PROFILE, PROFILES, XEN_PROFILE
from repro.hv.stack import StackConfig, build_stack
from repro.hw.ops import (
    MSR_TSC_DEADLINE,
    MSR_X2APIC_EOI,
    MSR_X2APIC_ICR,
    ExitReason,
    Op,
)
from repro.workloads.microbench import run_microbenchmark
from tests.exits import make_exit


# ----------------------------------------------------------------------
# ExitContext: chain identity and threading
# ----------------------------------------------------------------------
def test_root_frames_get_fresh_chain_ids():
    stack = build_stack(StackConfig(levels=1))
    leaf = stack.ctx(0)
    machine = stack.machine
    e1 = make_exit(leaf, Op.VMCALL, {})
    e2 = make_exit(leaf, Op.VMCALL, {})
    a = ExitContext(e1, leaf, None, machine)
    b = ExitContext(e2, leaf, None, machine)
    assert a.chain_id != b.chain_id
    assert a.depth == b.depth == 0
    assert a.origin_level == 1
    assert a.parent is None


def test_child_frames_inherit_chain_and_deepen():
    stack = build_stack(StackConfig(levels=2))
    leaf = stack.ctx(0)
    machine = stack.machine
    root = ExitContext(make_exit(leaf, Op.VMCALL, {}), leaf, None, machine)
    mid = ExitContext(make_exit(leaf, Op.VMREAD, {}), leaf, root, machine)
    deep = ExitContext(make_exit(leaf, Op.VMWRITE, {}), leaf, mid, machine)
    assert mid.chain_id == root.chain_id == deep.chain_id
    assert (root.depth, mid.depth, deep.depth) == (0, 1, 2)
    assert (deep.parent, mid.parent, root.parent) == (mid, root, None)


def test_make_exit_reason_for_every_op():
    """The Op -> ExitReason table covers every op; a WRMSR without an
    x2APIC MSR index is a plain MSR write."""
    leaf = build_stack(StackConfig(levels=1)).ctx(0)
    vmx = ExitReason.VMX_INSTRUCTION
    expected = {
        Op.VMREAD: vmx,
        Op.VMWRITE: vmx,
        Op.VMPTRLD: vmx,
        Op.VMRESUME: vmx,
        Op.VMLAUNCH: vmx,
        Op.INVEPT: vmx,
        Op.VMCALL: ExitReason.VMCALL,
        Op.CPUID: ExitReason.CPUID,
        Op.HLT: ExitReason.HLT,
        Op.RDMSR: ExitReason.MSR_READ,
        Op.WRMSR: ExitReason.MSR_WRITE,
        Op.MMIO_READ: ExitReason.MMIO,
        Op.MMIO_WRITE: ExitReason.MMIO,
        Op.PIO_WRITE: ExitReason.IO_INSTRUCTION,
    }
    assert set(expected) == set(Op)
    for op, reason in expected.items():
        exit_ = make_exit(leaf, op, {})
        assert (exit_.reason, exit_.op, exit_.from_level, exit_.vcpu) == (
            reason, op, 1, leaf
        ), op
    with pytest.raises(ValueError, match="unhandled op"):
        make_exit(leaf, "not-an-op", {})


def test_make_exit_decodes_wrmsr_by_msr_index():
    leaf = build_stack(StackConfig(levels=1)).ctx(0)

    def reason(msr):
        return make_exit(leaf, Op.WRMSR, {"msr": msr}).reason

    assert reason(MSR_TSC_DEADLINE) is ExitReason.APIC_TIMER
    assert reason(MSR_X2APIC_ICR) is ExitReason.APIC_ICR
    assert reason(MSR_X2APIC_EOI) is ExitReason.MSR_WRITE
    # RDMSR of an x2APIC register is an MSR read, whatever the index.
    assert (
        make_exit(leaf, Op.RDMSR, {"msr": MSR_TSC_DEADLINE}).reason
        is ExitReason.MSR_READ
    )


def test_forwarded_exit_multiplies_into_one_chain():
    """An L2 exit forwarded to the L1 hypervisor makes the L1 handler's
    own trapping ops children of the *same* chain — the paper's exit
    multiplication, observable frame by frame."""
    stack = build_stack(StackConfig(levels=2))
    collector = stack.machine.enable_span_tracing()
    run_microbenchmark(stack, "Hypercall", iterations=1)
    roots = [r for r in collector.roots if r.level == 2 and r.reason == "vmcall"]
    assert roots, "expected at least one forwarded L2 vmcall chain"
    root = roots[0]
    assert root.handler == "kvm-L1"
    assert root.hops == 1
    assert root.subtree_size() > 1  # the handler's ops trapped too
    assert all(child.depth == 1 for child in root.children)
    # Handler ops trap from the L1 vCPU the handler runs on.
    assert all(child.level == 1 for child in root.children)


def test_dvh_chain_is_a_single_frame():
    stack = build_stack(
        StackConfig(levels=2, io_model="vp", dvh=DvhFeatures.full())
    )
    collector = stack.machine.enable_span_tracing()
    run_microbenchmark(stack, "ProgramTimer", iterations=1)
    timer_roots = [r for r in collector.roots if r.reason == "apic_timer"]
    assert timer_roots
    for root in timer_roots:
        assert root.handler == "l0:dvh"
        assert root.hops == 0
        assert root.subtree_size() == 1


# ----------------------------------------------------------------------
# Routing: the owner table
# ----------------------------------------------------------------------
def test_l1_exits_always_route_to_l0():
    stack = build_stack(StackConfig(levels=1))
    leaf = stack.ctx(0)
    exit_ = make_exit(leaf, Op.VMCALL, {})
    assert DEFAULT_REGISTRY.route(leaf, exit_) == 0


def test_route_notify_only_icr_to_senders_manager():
    stack = build_stack(
        StackConfig(levels=3, io_model="vp", dvh=DvhFeatures.full())
    )
    leaf = stack.ctx(0)
    target = stack.ctx(1)
    exit_ = make_exit(
        leaf, Op.WRMSR,
        {
            "msr": MSR_X2APIC_ICR,
            "notify_only": True,
            "target": target,
            "vector": 32,
        },
    )
    assert exit_.reason is ExitReason.APIC_ICR
    assert DEFAULT_REGISTRY.route(leaf, exit_) == leaf.level - 1


def test_route_mmio_follows_device_provider_not_strings():
    """Virtual-passthrough ownership comes from the device's provider
    level, not from any control-bit name matching."""
    stack = build_stack(
        StackConfig(levels=3, io_model="vp", dvh=DvhFeatures.full())
    )
    leaf = stack.ctx(0)
    device = next(
        d
        for d in stack.vms[-1].bus.devices
        if getattr(d, "provider_level", None) == 0
    )
    exit_ = make_exit(leaf, Op.MMIO_WRITE, {"device": device, "addr": 0})
    assert DEFAULT_REGISTRY.route(leaf, exit_) == 0
    # No device at all: plain emulated MMIO belongs to the VM's manager.
    exit_ = make_exit(leaf, Op.MMIO_WRITE, {"device": None, "addr": 0})
    assert DEFAULT_REGISTRY.route(leaf, exit_) == leaf.level - 1


def test_no_string_matched_dvh_ownership_remains():
    assert not hasattr(KvmHypervisor, "_dvh_owner")


# ----------------------------------------------------------------------
# The exit tables
# ----------------------------------------------------------------------
def test_default_registry_covers_every_reason():
    tables = (DEFAULT_REGISTRY.l0, DEFAULT_REGISTRY.guest, DEFAULT_REGISTRY.owners)
    for table in tables:
        assert len(table) == len(ExitReason)
    for reason in ExitReason:
        handler, _dvh = DEFAULT_REGISTRY.l0[reason.index]
        assert callable(handler)
        assert callable(DEFAULT_REGISTRY.guest[reason.index])
        assert callable(DEFAULT_REGISTRY.owners[reason.index])


def test_dvh_capable_marking_matches_the_four_mechanisms():
    dvh_reasons = {
        reason
        for reason in ExitReason
        if reason is not ExitReason.PREEMPTION_TIMER
        and DEFAULT_REGISTRY.l0[reason.index][1]
    }
    assert dvh_reasons == {
        ExitReason.APIC_TIMER,
        ExitReason.APIC_ICR,
        ExitReason.HLT,
        ExitReason.MMIO,
    }


# ----------------------------------------------------------------------
# Profiles: Xen is data, not overrides
# ----------------------------------------------------------------------
def test_xen_defines_no_behavior():
    """The endpoint of the profile refactor: there is no Xen subclass at
    all — a Xen guest hypervisor is KvmHypervisor parameterized by
    XEN_PROFILE, and the stack builder wires exactly that."""
    import repro.hv as hv_pkg

    assert not hasattr(hv_pkg, "XenHypervisor")
    with pytest.raises(ModuleNotFoundError):
        import repro.hv.xen  # noqa: F401
    stack = build_stack(StackConfig(levels=2, guest_hv="xen"))
    ghv = stack.hvs[1]
    assert type(ghv) is KvmHypervisor
    assert ghv.profile is XEN_PROFILE
    # The host L0 stays on the KVM profile (class default untouched).
    assert stack.hvs[0].profile is KVM_PROFILE
    assert KvmHypervisor.profile is KVM_PROFILE


def test_profiles_registry_and_reason_op_counts():
    assert PROFILES["kvm"] is KVM_PROFILE
    assert PROFILES["xen"] is XEN_PROFILE
    for reason in ExitReason:
        kr, kw = KVM_PROFILE.reason_op_counts(reason)
        xr, xw = XEN_PROFILE.reason_op_counts(reason)
        if reason in KVM_PROFILE.op_counts:
            assert (xr, xw) == (kr + 5, kw + 4)
    # The reads+5/writes+4 Xen delta applies per reason, never to the
    # shared fallback (both profiles keep the same default).
    assert KVM_PROFILE.default_op_counts == XEN_PROFILE.default_op_counts == (9, 8)


def test_xen_split_driver_costs_come_from_profile():
    assert XEN_PROFILE.io_notify_sw == 1400
    assert XEN_PROFILE.io_notify_hypercall == "evtchn_send"
    assert KVM_PROFILE.io_notify_sw == 0
