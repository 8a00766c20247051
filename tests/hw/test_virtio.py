"""Unit tests for virtqueues and virtio devices."""

import pytest

from repro.hw.devices.virtio import (
    NOTIFY_OFFSET,
    VirtioDevice,
    Virtqueue,
    VirtqueueFull,
)
from repro.hw.pci import CapabilityId, PciBus


def test_queue_size_must_be_power_of_two():
    with pytest.raises(ValueError):
        Virtqueue(0, 100)
    Virtqueue(0, 128)


def test_add_pop_push_reap_roundtrip():
    q = Virtqueue(0, 8)
    desc_id = q.add_buffer(0x1000, 512, payload="pkt")
    assert q.avail_pending == 1
    popped = q.pop_avail()
    assert popped == (desc_id, 0x1000, 512, "pkt")
    assert q.avail_pending == 0
    q.push_used(desc_id, 512)
    assert q.used_pending == 1
    reaped = q.reap_used()
    assert reaped == [(desc_id, 512, "pkt")]
    assert q.used_pending == 0
    assert q.free_descriptors == 8


def test_pop_empty_returns_none():
    q = Virtqueue(0, 8)
    assert q.pop_avail() is None


def test_queue_full_raises():
    q = Virtqueue(0, 4)
    for i in range(4):
        q.add_buffer(i * 0x1000, 64)
    with pytest.raises(VirtqueueFull):
        q.add_buffer(0x9000, 64)


def test_index_wraparound():
    q = Virtqueue(0, 4)
    for round_ in range(10):  # 40 buffers through a 4-slot ring
        ids = [q.add_buffer(i * 0x1000, 64, payload=(round_, i)) for i in range(4)]
        for _ in ids:
            desc_id, _addr, _len, payload = q.pop_avail()
            q.push_used(desc_id, 64)
        reaped = q.reap_used()
        assert [p for (_d, _w, p) in reaped] == [(round_, i) for i in range(4)]
    assert q.avail_idx == 40
    assert q.used_idx == 40


def test_prefill_refuses_a_queue_that_has_posted():
    q = Virtqueue(0, 8)
    q.add_buffer(0x1000, 64)
    with pytest.raises(ValueError, match="already posted"):
        q.prefill(range(0x2000, 0x4000, 0x1000), 64)
    filled = Virtqueue(0, 8)
    filled.prefill([0x1000], 64)
    with pytest.raises(ValueError, match="already posted"):
        filled.prefill([0x2000], 64)
    # Draining every buffer does not make the queue unposted.
    filled.push_used(filled.pop_avail()[0], 64)
    filled.reap_used()
    with pytest.raises(ValueError, match="already posted"):
        filled.prefill([0x2000], 64)


def test_push_used_requires_in_use_descriptor():
    q = Virtqueue(0, 4)
    with pytest.raises(ValueError):
        q.push_used(0, 10)


def test_virtio_device_is_standard_pci():
    """Virtual-passthrough needs virtio devices that look like physical
    PCI devices (§3.1)."""
    dev = VirtioDevice("virtio-net0", kind="net")
    assert dev.has_capability(CapabilityId.MSIX)
    assert dev.has_capability(CapabilityId.PCIE)
    assert dev.vendor_id == 0x1AF4


def test_kick_dispatches_to_backend():
    bus = PciBus("b")
    dev = bus.plug(VirtioDevice("vnet", kind="net"))
    kicks = []
    dev.on_kick = kicks.append
    dev.mmio_write(dev.notify_addr, 1)
    dev.mmio_write(dev.notify_addr, 0)
    assert kicks == [1, 0]


def test_non_doorbell_write_ignored():
    bus = PciBus("b")
    dev = bus.plug(VirtioDevice("vnet"))
    dev.on_kick = lambda q: pytest.fail("should not kick")
    dev.mmio_write(dev.bars[0].base + 0x8, 1)  # config write


def test_notify_addr_requires_bus():
    dev = VirtioDevice("vnet")
    with pytest.raises(RuntimeError):
        _ = dev.notify_addr


def test_rx_tx_queue_roles():
    dev = VirtioDevice("vnet", num_queues=2)
    assert dev.rx.index == 0
    assert dev.tx.index == 1
