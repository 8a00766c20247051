"""Unit tests for the IOMMU's DMA domains."""

import pytest

from repro.hw.ept import Perm
from repro.hw.iommu import Iommu, IommuFault
from repro.hw.mem import PAGE_SHIFT
from repro.hw.pci import PciDevice


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
