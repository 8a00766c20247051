"""Unit tests for the IOMMU: DMA domains and interrupt remapping."""

import pytest

from repro.hw.ept import Perm
from repro.hw.iommu import Iommu, IommuFault, Irte, IrteMode
from repro.hw.mem import PAGE_SHIFT
from repro.hw.pci import PciDevice
from repro.hw.posted import PiDescriptor


def make_device(name="dev"):
    return PciDevice(name, 0x8086, 0x1234)


def test_attach_creates_domain_once():
    iommu = Iommu()
    dev = make_device()
    dom1 = iommu.attach(dev)
    dom2 = iommu.attach(dev)
    assert dom1 is dom2


def test_translate_requires_domain():
    iommu = Iommu()
    dev = make_device()
    with pytest.raises(IommuFault, match="no domain"):
        iommu.translate(dev, 0x1000)


def test_map_and_translate():
    iommu = Iommu()
    dev = make_device()
    iommu.attach(dev).map(0x10, 0x99, Perm.RW)
    addr = (0x10 << PAGE_SHIFT) + 4
    assert iommu.translate(dev, addr) == (0x99 << PAGE_SHIFT) + 4
    assert iommu.translate(dev, addr, write=True) == (0x99 << PAGE_SHIFT) + 4


def test_unmapped_iova_faults():
    iommu = Iommu()
    dev = make_device()
    iommu.attach(dev)
    with pytest.raises(IommuFault):
        iommu.translate(dev, 0x5000)


def test_readonly_mapping_blocks_dma_write():
    iommu = Iommu()
    dev = make_device()
    iommu.attach(dev).map(0x10, 0x99, Perm.R)
    iommu.translate(dev, 0x10 << PAGE_SHIFT)  # read ok
    with pytest.raises(IommuFault):
        iommu.translate(dev, 0x10 << PAGE_SHIFT, write=True)


def test_domains_are_isolated_between_devices():
    iommu = Iommu()
    a, b = make_device("a"), make_device("b")
    iommu.attach(a).map(0x10, 0x99, Perm.RW)
    iommu.attach(b)
    with pytest.raises(IommuFault):
        iommu.translate(b, 0x10 << PAGE_SHIFT)


def test_detach_removes_domain_and_irtes():
    iommu = Iommu()
    dev = make_device()
    iommu.attach(dev).map(0x10, 0x99, Perm.RW)
    iommu.set_irte(dev, 0, Irte(mode=IrteMode.REMAPPED, vector=0x40))
    iommu.detach(dev)
    with pytest.raises(IommuFault):
        iommu.translate(dev, 0x10 << PAGE_SHIFT)
    assert (dev.bdf, 0) not in iommu.irt


def test_interrupt_posting_entry():
    iommu = Iommu()
    dev = make_device()
    pid = PiDescriptor("vcpu3")
    iommu.set_irte(dev, 1, Irte(mode=IrteMode.POSTED, vector=0x41, pi_descriptor=pid))
    entry = iommu.irt[(dev.bdf, 1)]
    assert entry.mode == IrteMode.POSTED
    assert entry.pi_descriptor is pid
    assert entry.vector == 0x41
