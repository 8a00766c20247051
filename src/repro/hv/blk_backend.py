"""Virtio-blk drivers and backends (the storage counterpart of the net
datapath).

The MySQL workload's commit path is fsync-bound: each transaction submits
writes and flushes and *waits* for the completion interrupt.  The chain
structure mirrors virtio-net: a nested VM's virtio-blk device is served by
its guest hypervisor's backend, which relays through the hypervisor's own
virtio-blk device, bottoming out at the host backend that talks to the
physical SSD (``cache=none``, as the paper configures, §4).
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Set, Tuple

from repro.hw.devices.block import BlockRequest
from repro.hw.devices.virtio import VirtioDevice
from repro.hw.lapic import VIRTIO_VECTOR_BASE
from repro.hw.ops import Op
from repro.hv.virtio_backend import KICK_VECTOR

__all__ = ["VirtioBlkDriver", "NativeBlkDriver", "HostBlkBackend", "GuestBlkBackend"]

BLK_VECTOR = VIRTIO_VECTOR_BASE + 2
BLK_POOL_BASE = 0x8000_0000


class VirtioBlkDriver:
    """Guest-side virtio-blk driver: submit requests, reap completions."""

    def __init__(self, ctx, device: VirtioDevice, vector: int = BLK_VECTOR) -> None:
        self.ctx = ctx
        self.device = device
        self.vector = vector
        self.irq_dest = ctx
        device.bound_driver = self
        self._ids = itertools.count(1)
        self._completed: Set[int] = set()
        #: Completion interrupt destination per in-flight request (the
        #: submitting context, like a per-thread io completion).
        self._req_ctx: Dict[int, object] = {}

    @property
    def costs(self):
        return self.ctx.machine.costs

    @property
    def queue(self):
        return self.device.queues[0]

    def submit(self, op: str, size: int, ctx=None) -> Generator:
        """Queue one request + kick; returns a request id to wait on.
        ``ctx`` is the submitting context (defaults to the bound one)."""
        ctx = ctx if ctx is not None else self.ctx
        req_id = next(self._ids)
        self._req_ctx[req_id] = ctx
        req = BlockRequest(op=op, size=size, payload=req_id)
        yield from ctx.compute(self.costs.driver_per_packet)
        addr = BLK_POOL_BASE + (req_id % 64) * 0x10000
        ctx.mem_write(addr, min(size, 0x10000) or 1)
        self.queue.add_buffer(addr, size, payload=req)
        yield self.costs.ring_access
        yield from ctx.execute(
            Op.MMIO_WRITE,
            addr=self.device.notify_addr,
            value=0,
            device=self.device,
        )
        return req_id

    def reap_completions(self, ctx=None) -> Generator:
        """Collect completion ids from the used ring.

        The completed-set update must happen in the same simulation
        instant as the ring reap: the queue is shared by all workers, and
        a worker that drains a sibling's completion must publish it
        before any other worker can run, or the sibling checks, finds
        nothing, and sleeps through its own completion."""
        ctx = ctx if ctx is not None else self.ctx
        done = []
        for _desc, _written, payload in self.queue.reap_used():
            req = payload
            done.append(req.payload if isinstance(req, BlockRequest) else req)
        self._completed.update(done)
        if done:
            yield from ctx.compute(self.costs.driver_per_packet)
        return done

    def is_complete(self, req_id: int) -> bool:
        return req_id in self._completed

    def completion_dest(self, req_id: int):
        """(ctx, vector) the completion interrupt should target."""
        return self._req_ctx.get(req_id, self.ctx), self.vector

    def wait_for(self, req_id: int, ctx=None) -> Generator:
        """Block (handling interrupts) until ``req_id`` completes."""
        ctx = ctx if ctx is not None else self._req_ctx.get(req_id, self.ctx)
        yield from self.reap_completions(ctx=ctx)
        while not self.is_complete(req_id):
            yield from ctx.wait_for_interrupt()
            yield from ctx.irq_work()
            yield from self.reap_completions(ctx=ctx)
        self._req_ctx.pop(req_id, None)


class NativeBlkDriver:
    """Bare-metal block driver for the native baseline."""

    def __init__(self, ctx, ssd) -> None:
        self.ctx = ctx
        self.ssd = ssd
        self._ids = itertools.count(1)
        self._completed: Set[int] = set()

    def submit(self, op: str, size: int, ctx=None) -> Generator:
        ctx = ctx if ctx is not None else self.ctx
        req_id = next(self._ids)
        yield from ctx.compute(ctx.machine.costs.driver_per_packet)

        def complete(_req):
            self._completed.add(req_id)
            ctx.machine.deliver_native_interrupt(ctx.cpu.idx, BLK_VECTOR)

        self.ssd.submit(BlockRequest(op=op, size=size, payload=req_id), complete)
        return req_id

    def is_complete(self, req_id: int) -> bool:
        return req_id in self._completed

    def wait_for(self, req_id: int, ctx=None) -> Generator:
        ctx = ctx if ctx is not None else self.ctx
        while not self.is_complete(req_id):
            yield from ctx.wait_for_interrupt()
            yield from ctx.irq_work()


class HostBlkBackend:
    """L0 backend bridging an L0-provided virtio-blk device to the SSD."""

    def __init__(self, l0, device: VirtioDevice, user_vm) -> None:
        self.l0 = l0
        self.machine = l0.machine
        self.device = device
        self.user_vm = user_vm
        self._wake = self.machine.sim.event("blk-wake")
        self._done: List[Tuple[int, BlockRequest]] = []
        #: Migration support hook (set via the PCI migration capability).
        self.dirty_log = None
        device.on_kick = self._on_kick
        l0.backends[device] = self
        self._running = False

    def start(self) -> None:
        if not self._running:
            self._running = True
            self.machine.sim.spawn(self._run(), f"blk:{self.device.name}")

    def _on_kick(self, queue_index: int) -> None:
        self._signal()

    def _signal(self) -> None:
        ev = self._wake
        self._wake = self.machine.sim.event("blk-wake")
        ev.trigger()

    def _run(self) -> Generator:
        c = self.machine.costs
        queue = self.device.queues[0]
        while True:
            had_work = False
            while True:
                item = queue.pop_avail()
                if item is None:
                    break
                desc_id, _addr, size, req = item
                had_work = True
                self.machine.metrics.charge("vhost", c.vhost_per_packet)
                yield c.vhost_per_packet
                self.machine.ssd.submit(
                    req, lambda r, d=desc_id: self._complete(d, r)
                )
            while self._done:
                desc_id, req = self._done.pop(0)
                had_work = True
                yield c.vhost_per_packet // 2
                queue.push_used(desc_id, req.size, payload=req)
                driver = self.device.bound_driver
                if driver is not None:
                    dest, vector = driver.completion_dest(
                        req.payload if isinstance(req.payload, int) else 0
                    )
                    yield from self.l0.deliver_l0_device_interrupt(dest, vector)
            if not had_work:
                yield self._wake

    def _complete(self, desc_id: int, req: BlockRequest) -> None:
        self._done.append((desc_id, req))
        self._signal()


class GuestBlkBackend:
    """A guest hypervisor's virtio-blk backend: relays its nested VM's
    requests through the hypervisor's own block driver."""

    def __init__(self, hv, guest_device: VirtioDevice, lower, ctx) -> None:
        self.hv = hv
        self.machine = hv.machine
        self.guest_device = guest_device
        self.lower = lower  # VirtioBlkDriver one level down
        self.ctx = ctx
        lower.irq_dest = ctx
        guest_device.on_kick = lambda q: None
        hv.backends[guest_device] = self
        #: lower request id -> (guest desc id, guest request)
        self._inflight: Dict[int, Tuple[int, BlockRequest]] = {}
        self._running = False

    def start(self) -> None:
        if not self._running:
            self._running = True
            self.machine.sim.spawn(
                self._run(), f"gblk-L{self.hv.level}:{self.guest_device.name}"
            )

    def notify_from_guest(self, handler_ctx) -> Generator:
        yield 450  # ioeventfd signal
        self.ctx.pi_desc.post(KICK_VECTOR)
        self.ctx.pcpu.wake()

    def _run(self) -> Generator:
        c = self.machine.costs
        queue = self.guest_device.queues[0]
        while True:
            yield from self.ctx.wait_for_interrupt()
            # Relay new guest requests downward.
            while True:
                item = queue.pop_avail()
                if item is None:
                    break
                desc_id, _addr, size, req = item
                self.machine.metrics.charge("ghv_vhost", c.vhost_per_packet)
                yield from self.ctx.compute(c.vhost_per_packet)
                lower_id = yield from self.lower.submit(req.op, req.size, ctx=self.ctx)
                self._inflight[lower_id] = (desc_id, req)
            # Complete guest requests whose lower requests finished.
            yield from self.lower.reap_completions(ctx=self.ctx)
            completed_dests = []
            for lower_id in list(self._inflight):
                if self.lower.is_complete(lower_id):
                    desc_id, req = self._inflight.pop(lower_id)
                    yield from self.ctx.compute(c.vhost_per_packet // 2)
                    queue.push_used(desc_id, req.size, payload=req)
                    driver = self.guest_device.bound_driver
                    completed_dests.append(
                        driver.completion_dest(
                            req.payload if isinstance(req.payload, int) else 0
                        )
                    )
            for dest, vector in completed_dests:
                yield from self.hv.inject_interrupt(self.ctx, dest, vector)
                l0 = self.hv._hv_at(0)
                l0.charge_injection(dest, "blk")
                l0.wake_target(dest)
