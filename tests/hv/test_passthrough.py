"""Tests for physical device assignment (Figure 2b) and its limits."""

import pytest

from repro.core.features import DvhFeatures
from repro.core.vpassthrough import populate_chain_epts
from repro.hv.passthrough import (
    MigrationNotSupported,
    assign_physical_device,
    dma_pool_pfns,
    resolve_many_through_chain,
    resolve_through_chain,
)
from repro.hv.stack import StackConfig, build_stack
from repro.hw.ept import Perm
from repro.hw.iommu import IrteMode
from repro.hw.ops import Op


def make(levels=2, io="passthrough"):
    stack = build_stack(StackConfig(levels=levels, io_model=io))
    stack.settle()
    return stack


def test_dma_pool_covers_all_queue_strides():
    runs = dma_pool_pfns(buffers=4, buf_size=65536, queues=2)
    from repro.hv.virtio_backend import QUEUE_POOL_STRIDE, RX_POOL_BASE

    assert any((RX_POOL_BASE >> 12) in run for run in runs)
    assert any(((RX_POOL_BASE + QUEUE_POOL_STRIDE) >> 12) in run for run in runs)
    # Sorted, disjoint and non-adjacent: one run per queue pool here.
    assert all(a.stop < b.start for a, b in zip(runs, runs[1:]))
    # 2 pools x 2 queues x 4 buffers x 16 pages.
    assert len(runs) == 4 and sum(len(run) for run in runs) == 2 * 2 * 4 * 16


def test_assignment_maps_bar_without_trapping():
    stack = make()
    vf = stack.net.vf
    bar = vf.bars[0]
    assert not stack.leaf_vm.traps_mmio(bar.base)
    assert stack.leaf_vm.traps_mmio(0x1)  # everything else still traps


def test_doorbell_causes_no_exit():
    stack = make()
    ctx = stack.ctx(0)
    before = stack.metrics.copy()

    def kick():
        yield from ctx.execute(
            Op.MMIO_WRITE, addr=stack.net._doorbell_addr(), value=0, device=stack.net.vf
        )

    stack.sim.run_process(kick())
    assert stack.metrics.diff(before).total_exits() == 0


def test_iommu_domain_has_composed_mappings():
    stack = make(levels=2)
    vf = stack.net.vf
    domain = stack.machine.iommu.domain_of(vf)
    assert domain is not None and len(domain) > 0
    from repro.hv.virtio_backend import RX_POOL_BASE

    pfn = RX_POOL_BASE >> 12
    assert domain.translate(pfn) == resolve_through_chain(stack.leaf_vm, pfn)


def test_interrupts_posted_via_vtd():
    stack = make()
    entry = stack.machine.iommu.remap_interrupt(stack.net.vf, 0)
    assert entry.mode == IrteMode.POSTED
    assert entry.pi_descriptor is stack.ctx(0).pi_desc


def test_hardware_coupling_marks_whole_chain():
    stack = make(levels=3)
    assert all(vm.hardware_coupled for vm in stack.vms)


def test_virtio_stack_not_hardware_coupled():
    stack = build_stack(StackConfig(levels=2, io_model="virtio"))
    assert not any(vm.hardware_coupled for vm in stack.vms)


def test_resolve_through_chain_missing_mapping_raises():
    stack = build_stack(StackConfig(levels=2, io_model="virtio"))
    with pytest.raises(KeyError):
        resolve_through_chain(stack.leaf_vm, 0xDEADBEEF)


def test_resolve_many_through_chain_names_first_missing_pfn_and_vm():
    stack = build_stack(StackConfig(levels=2, io_model="virtio"))
    populate_chain_epts(stack.leaf_vm, [range(0x100, 0x104)])
    mapped = [range(0x100, 0x104)]
    # 0x300 comes first in input order, although 0x200 is the lower pfn.
    with pytest.raises(KeyError, match=r"L2: pfn 0x300 not mapped"):
        resolve_many_through_chain(
            stack.leaf_vm, mapped + [range(0x300, 0x302), range(0x200, 0x201)]
        )
    # Mapped in the leaf's EPT but not in L1's: L1 and the L1-level pfn
    # are named.
    stack.leaf_vm.ept.map(0x500, 0x900, Perm.RW)
    with pytest.raises(KeyError, match=r"L1: pfn 0x900 not mapped"):
        resolve_many_through_chain(stack.leaf_vm, mapped + [range(0x500, 0x501)])
    runs = resolve_many_through_chain(stack.leaf_vm, mapped)
    assert runs == [(0x100, 4, resolve_through_chain(stack.leaf_vm, 0x100), Perm.RW)]


def test_vf_exhaustion():
    stack = make()
    nic = stack.machine.nic
    total = nic.find_capability(
        __import__("repro.hw.pci", fromlist=["CapabilityId"]).CapabilityId.SRIOV
    ).registers["total_vfs"]
    for _ in range(total - len(nic.vfs)):
        nic.create_vf()
    with pytest.raises(RuntimeError):
        nic.create_vf()
