"""Tests for the stack builder: configurations, layout, capabilities."""

import pytest

from repro.core.features import DvhFeatures
from repro.hv.kvm import KvmHypervisor
from repro.hv.profiles import KVM_PROFILE, XEN_PROFILE
from repro.hv.stack import StackConfig, build_stack
from repro.hw.machine import GB


def test_invalid_levels_rejected():
    from repro.hv.stack import MAX_LEVELS

    with pytest.raises(ValueError):
        build_stack(StackConfig(levels=MAX_LEVELS + 1))
    with pytest.raises(ValueError):
        build_stack(StackConfig(levels=-1))


def test_vp_requires_nesting():
    with pytest.raises(ValueError, match="nested"):
        build_stack(StackConfig(levels=1, io_model="vp"))


def test_bad_guest_hv_rejected():
    with pytest.raises(ValueError, match="kvm, xen, or hs"):
        build_stack(StackConfig(levels=2, guest_hv="hyperv"))


def test_native_has_no_hypervisors():
    stack = build_stack(StackConfig(levels=0, io_model="native"))
    assert stack.hvs == []
    assert stack.vms == []
    assert len(stack.ctxs) == 4


def test_hv_stack_structure():
    stack = build_stack(StackConfig(levels=3))
    assert [hv.level for hv in stack.hvs] == [0, 1, 2]
    assert stack.machine.host_hv is stack.hvs[0]
    assert stack.machine.hv_stack == stack.hvs


def test_memory_sizing_follows_paper():
    """§4: 12 GB for the measured VM, +12 GB per hypervisor level."""
    stack = build_stack(StackConfig(levels=3))
    assert stack.vms[0].memory.size_bytes == 36 * GB
    assert stack.vms[1].memory.size_bytes == 24 * GB
    assert stack.vms[2].memory.size_bytes == 12 * GB


def test_one_to_one_pinning():
    stack = build_stack(StackConfig(levels=2, workers=4))
    pcpus = [ctx.pcpu.idx for ctx in stack.ctxs]
    assert pcpus == [0, 1, 2, 3]
    # Backends on their own physical CPUs.
    backend_vcpus = [v for v in stack.vms[0].vcpus if v.index >= 4]
    assert all(v.pcpu.idx >= 4 for v in backend_vcpus)


def test_xen_guest_hypervisor_selected():
    stack = build_stack(StackConfig(levels=2, guest_hv="xen"))
    assert type(stack.hvs[1]) is KvmHypervisor
    assert stack.hvs[1].profile is XEN_PROFILE
    assert stack.hvs[0].profile is KVM_PROFILE  # host stays KVM


def test_capability_chain_propagates_dvh_bits():
    stack = build_stack(StackConfig(levels=3, io_model="vp", dvh=DvhFeatures.full()))
    # Every guest hypervisor discovered the DVH capability bits (§3.5:
    # guest hypervisors re-expose virtual hardware recursively).
    for hv in stack.hvs[1:]:
        assert hv.capability.virtual_timer
        assert hv.capability.virtual_ipi


def test_no_dvh_capability_without_features():
    stack = build_stack(StackConfig(levels=2, io_model="virtio"))
    assert not stack.hvs[1].capability.virtual_timer
    assert not stack.hvs[1].capability.virtual_ipi


def test_dvh_enable_bits_set_on_every_level():
    stack = build_stack(StackConfig(levels=3, io_model="vp", dvh=DvhFeatures.full()))
    for vm in stack.vms[1:]:  # nested VMs
        for vcpu in vm.vcpus:
            assert vcpu.vmcs.controls.virtual_timer_enable
            assert not vcpu.vmcs.controls.hlt_exiting  # virtual idle


def test_vmcs_shadowing_ablation_flag():
    on = build_stack(StackConfig(levels=2, vmcs_shadowing=True))
    off = build_stack(StackConfig(levels=2, vmcs_shadowing=False))
    assert on.ctx(0).vmcs.controls.shadow_vmcs
    assert not off.ctx(0).vmcs.controls.shadow_vmcs
    r_on = on.hvs[1].op_counts(
        __import__("repro.hw.ops", fromlist=["ExitReason"]).ExitReason.VMCALL
    )
    r_off = off.hvs[1].op_counts(
        __import__("repro.hw.ops", fromlist=["ExitReason"]).ExitReason.VMCALL
    )
    assert sum(r_off) > sum(r_on)


def test_migration_capability_present_on_l0_devices():
    from repro.hw.pci import CapabilityId

    vp = build_stack(StackConfig(levels=2, io_model="vp", dvh=DvhFeatures.vp_only()))
    assert vp.net.device.find_capability(CapabilityId.MIGRATION) is not None
    virtio = build_stack(StackConfig(levels=2, io_model="virtio"))
    # The L0-provided device of the cascade carries it; the L1-provided
    # leaf device does not (its state is the guest hypervisor's problem).
    assert virtio.net.device.find_capability(CapabilityId.MIGRATION) is None


def test_deterministic_builds():
    a = build_stack(StackConfig(levels=2, seed=3))
    b = build_stack(StackConfig(levels=2, seed=3))
    assert [v.name for v in a.leaf_vm.vcpus] == [v.name for v in b.leaf_vm.vcpus]
    assert a.ctx(0).total_tsc_offset() == b.ctx(0).total_tsc_offset()
