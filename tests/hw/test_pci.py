"""Unit tests for PCI config space, capabilities, and buses."""

import pytest

from repro.hw.pci import Bar, Capability, CapabilityId, PciBus, PciDevice


def test_capability_walk():
    dev = PciDevice("d", 0x8086, 0x1)
    dev.add_capability(Capability(CapabilityId.MSIX, {"table_size": 4}))
    dev.add_capability(Capability(CapabilityId.PCIE, {}))
    cap = dev.find_capability(CapabilityId.MSIX)
    assert cap is not None and cap.registers["table_size"] == 4
    assert dev.find_capability(CapabilityId.PCIE) is not None
    assert dev.find_capability(CapabilityId.MIGRATION) is None


def test_duplicate_capability_rejected():
    dev = PciDevice("d", 0x8086, 0x1)
    dev.add_capability(Capability(CapabilityId.MSIX, {}))
    with pytest.raises(ValueError):
        dev.add_capability(Capability(CapabilityId.MSIX, {}))


def test_bus_plug_assigns_bar_addresses():
    bus = PciBus("b")
    d1 = bus.plug(PciDevice("d1", 0x8086, 0x1, bar_sizes=[0x1000, 0x2000]))
    d2 = bus.plug(PciDevice("d2", 0x8086, 0x2))
    addrs = [bar.base for bar in d1.bars] + [bar.base for bar in d2.bars]
    assert all(a is not None for a in addrs)
    assert len(set(addrs)) == len(addrs)  # no overlap
    # Windows must not overlap byte-wise either.
    windows = sorted(
        (bar.base, bar.base + bar.size)
        for dev in (d1, d2)
        for bar in dev.bars
    )
    for (s1, e1), (s2, _e2) in zip(windows, windows[1:]):
        assert e1 <= s2


def test_bar_contains():
    bar = Bar(index=0, size=0x1000, base=0x8000)
    assert bar.contains(0x8000)
    assert bar.contains(0x8FFF)
    assert not bar.contains(0x9000)
    assert not Bar(index=0, size=0x1000).contains(0)  # unassigned


def test_device_at_address_routing():
    bus = PciBus("b")
    d1 = bus.plug(PciDevice("d1", 0x8086, 0x1))
    d2 = bus.plug(PciDevice("d2", 0x8086, 0x2))
    assert bus.device_at(d1.bars[0].base) is d1
    assert bus.device_at(d2.bars[0].base + 10) is d2
    assert bus.device_at(0x1) is None


def test_enumerate_and_find():
    bus = PciBus("b")
    bus.plug(PciDevice("eth0", 0x8086, 0x1))
    bus.plug(PciDevice("ssd0", 0x8086, 0x2))
    names = [d.name for d in bus.enumerate()]
    assert names == ["eth0", "ssd0"]
    assert bus.find("ssd0").device_id == 0x2
    assert bus.find("nope") is None


def test_unplug():
    bus = PciBus("b")
    dev = bus.plug(PciDevice("d", 0x8086, 0x1))
    bus.unplug(dev)
    assert list(bus.enumerate()) == []


def test_bdf_unique():
    a = PciDevice("a", 0, 0)
    b = PciDevice("b", 0, 0)
    assert a.bdf != b.bdf
