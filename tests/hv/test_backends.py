"""Tests for the virtio datapaths: host vhost, guest-hypervisor relay,
multiqueue steering, and end-to-end packet flow."""

from types import SimpleNamespace

import pytest

from repro.core.features import DvhFeatures
from repro.hv.stack import StackConfig, build_stack
from repro.hv.virtio_backend import (
    QUEUE_POOL_STRIDE,
    RX_BUFFERS,
    RX_POOL_BASE,
    VirtioDriver,
)
from repro.hw.devices.virtio import VirtioDevice
from repro.hw.lapic import VIRTIO_VECTOR_BASE


def make(levels=1, io="virtio", dvh=None, **kw):
    stack = build_stack(
        StackConfig(levels=levels, io_model=io, dvh=dvh or DvhFeatures.none(), **kw)
    )
    stack.settle()
    return stack


def echo_server(stack, received, queue=0, count=1):
    ctx = stack.net.queue_dest(queue)[0]

    def server():
        while len(received) < count:
            msgs = yield from stack.net.poll_rx(queue=queue, ctx=ctx)
            if not msgs:
                yield from ctx.wait_for_interrupt()
                continue
            for size, payload in msgs:
                received.append((size, payload))

    return server()


@pytest.mark.parametrize("num_queues,queue_size", [(2, 256), (8, 256), (4, 64), (2, 1)])
def test_driver_rx_rings_match_per_buffer_posts(num_queues, queue_size):
    """The driver fills each RX ring in one step; every queue ends up as
    the per-buffer loop left it (``min(RX_BUFFERS, size // 2)`` posts of
    consecutive pool slots), and the TX queues stay unposted."""
    buf_size = 4096
    dev = VirtioDevice("vnet", num_queues=num_queues, queue_size=queue_size)
    VirtioDriver(SimpleNamespace(machine=None), dev, buf_size=buf_size)
    ref = VirtioDevice("ref", num_queues=num_queues, queue_size=queue_size)
    for pair in range(ref.num_queue_pairs):
        for i in range(min(RX_BUFFERS, queue_size // 2)):
            ref.rx_q(pair).add_buffer(
                RX_POOL_BASE + pair * QUEUE_POOL_STRIDE + i * buf_size, buf_size
            )
    assert [vars(q) for q in dev.queues] == [vars(q) for q in ref.queues]
    assert all(dev.tx_q(p).desc_addr is None for p in range(dev.num_queue_pairs))


@pytest.mark.parametrize(
    "levels,io,dvh",
    [
        (0, "native", DvhFeatures.none()),
        (1, "virtio", DvhFeatures.none()),
        (1, "passthrough", DvhFeatures.none()),
        (2, "virtio", DvhFeatures.none()),
        (2, "passthrough", DvhFeatures.none()),
        (2, "vp", DvhFeatures.vp_only()),
        (2, "vp", DvhFeatures.full()),
        (3, "virtio", DvhFeatures.none()),
        (3, "vp", DvhFeatures.full()),
    ],
)
def test_rx_path_end_to_end(levels, io, dvh):
    """A client packet reaches the leaf driver in every configuration."""
    stack = make(levels=levels, io=io, dvh=dvh)
    received = []
    stack.sim.spawn(echo_server(stack, received), "server")
    stack.machine.client.send(stack.flow, 1500, payload="hello")
    stack.sim.run()
    assert received == [(1500, "hello")]


@pytest.mark.parametrize(
    "levels,io,dvh",
    [
        (0, "native", DvhFeatures.none()),
        (1, "virtio", DvhFeatures.none()),
        (2, "virtio", DvhFeatures.none()),
        (2, "vp", DvhFeatures.full()),
        (2, "passthrough", DvhFeatures.none()),
    ],
)
def test_tx_path_end_to_end(levels, io, dvh):
    """A leaf-driver send reaches the remote client in every config."""
    stack = make(levels=levels, io=io, dvh=dvh)
    got = []
    stack.machine.client.on_receive(stack.flow, lambda p: got.append(p.payload))
    ctx = stack.ctx(0)

    def sender():
        yield from stack.net.send(2000, payload="out", kick=True, queue=0, ctx=ctx)

    stack.sim.run_process(sender())
    stack.sim.run()
    assert got == ["out"]


def test_multiqueue_rss_steering():
    """Packets with queue hints reach the worker bound to that queue."""
    stack = make(levels=2, io="virtio")
    per_queue = {0: [], 1: [], 2: []}
    for q in per_queue:
        stack.net.bind_queue(q, stack.ctxs[q], VIRTIO_VECTOR_BASE + q)

    def server(q):
        msgs = []
        while not msgs:
            msgs = yield from stack.net.poll_rx(queue=q, ctx=stack.ctxs[q])
            if not msgs:
                yield from stack.ctxs[q].wait_for_interrupt()
        per_queue[q].extend(p for _s, p in msgs)

    for q in per_queue:
        stack.sim.spawn(server(q), f"s{q}")
    for q in per_queue:
        stack.machine.client.send(stack.flow, 100, payload=f"q{q}", queue_hint=q)
    stack.sim.run()
    assert per_queue == {0: ["q0"], 1: ["q1"], 2: ["q2"]}


def test_rx_overflow_drops():
    """More packets than posted RX buffers: the excess drops (and is
    counted), like a real NIC."""
    stack = make(levels=1, io="virtio")
    for _ in range(200):  # 128 buffers posted per queue
        stack.machine.client.send(stack.flow, 100, payload="x")
    stack.sim.run()
    assert stack.metrics.events["rx_drops"] > 0
    assert stack.net.device.rx_q(0).used_pending == 128


def test_vhost_kick_counted():
    stack = make(levels=1, io="virtio")
    ctx = stack.ctx(0)

    def sender():
        yield from stack.net.send(100, payload="a", kick=True, queue=0, ctx=ctx)

    stack.sim.run_process(sender())
    stack.sim.run()
    assert stack.metrics.events["vhost_kicks"] >= 1


def test_guest_vhost_relays_through_lower_device():
    """In the nested cascade, leaf TX appears on the wire via the L1
    backend's own device (Figure 2a)."""
    stack = make(levels=2, io="virtio")
    got = []
    stack.machine.client.on_receive(stack.flow, lambda p: got.append(p.size))
    ctx = stack.ctx(0)

    def sender():
        yield from stack.net.send(4321, payload="nested", kick=True, queue=0, ctx=ctx)

    before = stack.metrics.copy()
    stack.sim.run_process(sender())
    stack.sim.run()
    delta = stack.metrics.diff(before)
    assert got == [4321]
    # The relay costs guest-hypervisor vhost work...
    assert delta.cycles["ghv_vhost"] > 0
    # ...and the L1 backend kicked its own (L0-provided) device.
    assert delta.exits_for_reason("mmio") >= 2


def test_dvh_vp_tx_does_not_touch_guest_hypervisor():
    stack = make(levels=2, io="vp", dvh=DvhFeatures.full())
    got = []
    stack.machine.client.on_receive(stack.flow, lambda p: got.append(p.size))
    ctx = stack.ctx(0)

    def sender():
        yield from stack.net.send(999, payload="direct", kick=True, queue=0, ctx=ctx)

    before = stack.metrics.copy()
    stack.sim.run_process(sender())
    stack.sim.run()
    delta = stack.metrics.diff(before)
    assert got == [999]
    assert delta.guest_hv_interventions() == 0
    assert delta.cycles.get("ghv_vhost", 0) == 0


def test_vp_dma_translates_through_shadow_table():
    """The host vhost resolves leaf buffer addresses through the composed
    shadow IOMMU table (Figure 6)."""
    stack = make(levels=2, io="vp", dvh=DvhFeatures.vp_only())
    assignment = stack.vp_assignment
    assert assignment is not None
    from repro.hv.virtio_backend import RX_POOL_BASE

    host_addr = assignment.translate(RX_POOL_BASE, write=True)
    assert host_addr != RX_POOL_BASE  # strides make identity impossible
    # And it matches walking the EPT chain by hand.
    from repro.hv.passthrough import resolve_through_chain

    pfn = RX_POOL_BASE >> 12
    assert host_addr >> 12 == resolve_through_chain(stack.leaf_vm, pfn)


def test_viommu_pi_changes_interrupt_mode():
    """Figure 8's increment: without vIOMMU posted interrupts, device
    interrupts to the nested VM are injected; with them, posted."""
    no_pi = make(levels=2, io="vp", dvh=DvhFeatures.vp_only())
    with_pi = make(
        levels=2,
        io="vp",
        dvh=DvhFeatures.vp_only().with_(viommu_posted_interrupts=True),
    )
    for stack, mode in ((no_pi, "injected"), (with_pi, "posted")):
        received = []
        stack.sim.spawn(echo_server(stack, received), "server")
        stack.machine.client.send(stack.flow, 100, payload="m")
        stack.sim.run()
        assert received
        assert stack.metrics.interrupts[("virtio", mode)] >= 1
