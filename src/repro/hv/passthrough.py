"""Device assignment: the passthrough model (Figure 2b).

Assigning a device to a (nested) VM means: unbind it from the current
driver, map its BAR windows into the VM without trapping, build the IOMMU
DMA mappings from device-visible IOVAs (the VM's guest-physical addresses)
to host-physical addresses — composed across every nesting level — and
point the device's interrupts at the VM's vCPU through VT-d posted
interrupts.

This is also the machinery virtual-passthrough reuses unchanged in the
guest hypervisors ("what the guest hypervisor does with virtual-passthrough
is exactly the same as what it does with the regular passthrough model",
§3.1); the virtual-device variant lives in :mod:`repro.core.vpassthrough`.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.hw.ept import PageTable, Perm, Run
from repro.hw.iommu import Irte, IrteMode
from repro.hw.mem import PAGE_SHIFT
from repro.hw.pci import PciDevice

__all__ = [
    "assign_physical_device",
    "MigrationNotSupported",
    "dma_pool_pfns",
    "resolve_through_chain",
    "resolve_many_through_chain",
]

#: Pages each driver pre-maps for DMA (RX + TX pools).
from repro.hv.virtio_backend import QUEUE_POOL_STRIDE, RX_POOL_BASE, TX_POOL_BASE


class MigrationNotSupported(RuntimeError):
    """Raised when migrating a VM that uses physical device passthrough —
    the key limitation DVH removes (§1, §3.6)."""


def dma_pool_pfns(
    buffers: int = 128, buf_size: int = 65536, queues: int = 4
) -> List[range]:
    """Guest page frames of the standard driver DMA pools (covering every
    multiqueue pool stride), as sorted, disjoint, non-adjacent runs."""
    spans = []
    for base in (RX_POOL_BASE, TX_POOL_BASE):
        for q in range(queues):
            qbase = base + q * QUEUE_POOL_STRIDE
            for i in range(buffers):
                addr = qbase + i * buf_size
                spans.append(
                    (addr >> PAGE_SHIFT, ((addr + buf_size - 1) >> PAGE_SHIFT) + 1)
                )
    runs: List[range] = []
    for start, stop in sorted(spans):
        if runs and start <= runs[-1].stop:
            if stop > runs[-1].stop:
                runs[-1] = range(runs[-1].start, stop)
        else:
            runs.append(range(start, stop))
    return runs


def resolve_through_chain(leaf_vm, pfn: int) -> int:
    """Translate a leaf-VM page frame to a host page frame by walking the
    EPTs of every nesting level (the shadow-table composition of §3.5)."""
    vm = leaf_vm
    current = pfn
    while vm is not None:
        entry = vm.ept.lookup(current)
        if entry is None:
            raise KeyError(
                f"{vm.name}: pfn {current:#x} not mapped in its EPT"
            )
        current = entry[0]
        vm = vm.manager.vm if vm.manager is not None else None
    return current


def resolve_many_through_chain(leaf_vm, pfns: Iterable[range]) -> List[Run]:
    """Batch :func:`resolve_through_chain` over runs of leaf page frames:
    the runs are composed through one EPT per nesting level.  Returns
    ``(leaf_pfn, npages, host_pfn, perm)`` runs in input order; raises
    KeyError naming the first unmapped pfn, in input order, at the first
    level whose EPT lacks one."""
    runs: List[Run] = [(r.start, len(r), r.start, Perm.RWX) for r in pfns]
    vm = leaf_vm
    while vm is not None:
        runs, missing = vm.ept.compose_runs(runs)
        if missing is not None:
            raise KeyError(f"{vm.name}: pfn {missing:#x} not mapped in its EPT")
        vm = vm.manager.vm if vm.manager is not None else None
    return runs


def assign_physical_device(
    machine,
    device: PciDevice,
    leaf_vm,
    pfns: List[range],
) -> PageTable:
    """Assign a physical device (e.g. an SR-IOV VF) to ``leaf_vm``.

    Builds the physical IOMMU domain with composed mappings and maps the
    device BARs through without trapping.  Marks the VM (and every VM on
    its chain) as having a hardware dependency, which blocks migration.
    Returns the IOMMU domain table.
    """
    costs = machine.costs
    device.assigned_to = leaf_vm
    # BARs visible (and non-trapping) inside the leaf.
    for bar in device.bars:
        if bar.base is not None:
            leaf_vm.map_mmio_no_trap(bar.base, bar.size)
    domain = machine.iommu.attach(device)
    for pfn, npages, host_pfn, _perm in resolve_many_through_chain(leaf_vm, pfns):
        domain.map(pfn, host_pfn, Perm.RW, npages)
    pages = sum(len(run) for run in pfns)
    machine.metrics.charge(
        "setup", costs.shadow_iommu_map_page * leaf_vm.level * pages
    )
    # VT-d posted interrupts straight to the leaf's first vCPU.
    if leaf_vm.vcpus:
        machine.iommu.set_irte(
            device,
            0,
            Irte(
                mode=IrteMode.POSTED,
                vector=0x40,
                pi_descriptor=leaf_vm.vcpus[0].pi_desc,
            ),
        )
    # Physical passthrough couples the VM to the hardware: flag the whole
    # chain as unmigratable.
    vm = leaf_vm
    while vm is not None:
        vm.hardware_coupled = True
        vm = vm.manager.vm if vm.manager is not None else None
    return domain
