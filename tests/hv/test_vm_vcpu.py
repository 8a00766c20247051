"""Unit tests for VMs, vCPUs, chains, and TSC offset arithmetic."""

import pytest

from repro.core.features import DvhFeatures
from repro.hv.stack import StackConfig, build_stack
from repro.hw.ops import Op
from repro.hw.vmx import VmcsField


def make(levels=2, io="virtio", dvh=None, **kw):
    return build_stack(
        StackConfig(levels=levels, io_model=io, dvh=dvh or DvhFeatures.none(), **kw)
    )


def test_vcpu_chain_structure():
    stack = make(levels=3)
    leaf = stack.ctx(0)
    chain = list(leaf._chain)
    assert [v.level for v in chain] == [1, 2, 3]
    assert chain[-1] is leaf
    assert chain[0].parent is None
    assert all(v.pcpu is leaf.pcpu for v in chain)  # 1:1 pinning


def test_chain_vcpu_accessor():
    stack = make(levels=3)
    leaf = stack.ctx(0)
    assert leaf.chain_vcpu(3) is leaf
    assert leaf.chain_vcpu(1).level == 1
    with pytest.raises(ValueError):
        leaf.chain_vcpu(4)
    with pytest.raises(ValueError):
        leaf.chain_vcpu(0)


def test_vm_levels_and_managers():
    stack = make(levels=3)
    vms = stack.vms
    assert [vm.level for vm in vms] == [1, 2, 3]
    assert vms[0].manager.level == 0
    assert vms[2].manager.level == 2
    assert vms[2].manager.vm is vms[1]


def test_total_tsc_offset_sums_chain():
    stack = make(levels=2)
    leaf = stack.ctx(0)
    expected = sum(v.vmcs.read(VmcsField.TSC_OFFSET) for v in leaf._chain)
    assert leaf.total_tsc_offset() == expected
    assert expected != 0  # offsets are deliberately nonzero


def test_read_tsc_applies_offsets_without_exit():
    stack = make(levels=2)
    leaf = stack.ctx(0)
    before = stack.metrics.total_exits()
    tsc = leaf.read_tsc()
    assert tsc == leaf.pcpu.tsc + leaf.total_tsc_offset()
    assert stack.metrics.total_exits() == before


def test_compute_charges_time_without_exits():
    stack = make(levels=2)
    stack.settle()
    leaf = stack.ctx(0)
    before = stack.metrics.total_exits()
    start = stack.sim.now

    def work():
        yield from leaf.compute(12345)

    stack.sim.run_process(work())
    assert stack.sim.now - start == 12345
    assert stack.metrics.total_exits() == before


def test_hypercall_exits_to_l0_once_for_l1():
    stack = make(levels=1)
    ctx = stack.ctx(0)

    def work():
        yield from ctx.execute(Op.VMCALL)

    stack.sim.run_process(work())
    assert stack.metrics.exits[(1, "vmcall")] == 1
    assert stack.metrics.guest_hv_interventions() == 0


def test_nested_hypercall_is_forwarded():
    stack = make(levels=2)
    ctx = stack.ctx(0)

    def work():
        yield from ctx.execute(Op.VMCALL)

    stack.sim.run_process(work())
    assert stack.metrics.exits[(2, "vmcall")] == 1
    assert stack.metrics.forwards[(2, "vmcall", 1)] == 1
    # Exit multiplication: the L1 handler's own ops exited too.
    assert stack.metrics.exits_from_level(1) > 10


def test_shadowed_vmcs_access_does_not_exit():
    stack = make(levels=2)
    stack.settle()
    leaf = stack.ctx(0)
    before = stack.metrics.total_exits()

    def work():
        # EXIT_REASON is shadowed; leaf.vmcs has shadow_vmcs enabled.
        value = yield from leaf.chain_vcpu(1).execute(
            Op.VMREAD, vmcs=leaf.vmcs, field=VmcsField.EXIT_REASON
        )
        return value

    stack.sim.run_process(work())
    assert stack.metrics.total_exits() == before


def test_unshadowed_vmcs_access_exits():
    stack = make(levels=2)
    leaf = stack.ctx(0)

    def work():
        yield from leaf.chain_vcpu(1).execute(
            Op.VMWRITE, vmcs=leaf.vmcs, field=VmcsField.TSC_OFFSET, value=-5
        )

    stack.sim.run_process(work())
    assert stack.metrics.exits[(1, "vmx")] == 1
    assert leaf.vmcs.read(VmcsField.TSC_OFFSET) == -5


def test_mem_write_tracks_leaf_vm_memory():
    stack = make(levels=2)
    leaf = stack.ctx(0)
    leaf.mem_write(0x5000, 100)
    assert 5 in leaf.vm.memory.touched_pages
    assert 5 not in stack.vms[0].memory.touched_pages


def test_worker_vcpus_have_low_indices():
    stack = make(levels=2, workers=4)
    assert [c.index for c in stack.ctxs] == [0, 1, 2, 3]


def test_vm_vcpu_level_mismatch_rejected():
    stack = make(levels=2)
    vm2 = stack.vms[1]
    l1_vcpu = stack.vms[0].vcpus[0]
    with pytest.raises(ValueError):
        # parent two levels down is invalid
        vm2.add_vcpu(stack.machine.cpus[9], l1_vcpu.parent)
    with pytest.raises(ValueError):
        vm2.add_vcpu(stack.machine.cpus[9], None)  # nested needs parent
