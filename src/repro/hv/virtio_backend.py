"""Virtio drivers and backends: the I/O datapaths of every configuration.

The paper's Figure 2 I/O models map onto these classes:

* **Virtual I/O (Figure 2a)** — a cascade: the leaf guest's
  :class:`VirtioDriver` kicks its device, whose :class:`GuestVhost`
  backend (in the guest hypervisor) relays through *its own*
  :class:`VirtioDriver` one level down, ending at the host's
  :class:`HostVhost`, which talks to the physical NIC.  Every backend
  level costs forwarded exits.
* **Passthrough (Figure 2b)** — :class:`VfNicDriver` drives an SR-IOV VF
  directly: doorbells don't trap, DMA goes through the physical IOMMU,
  interrupts are posted by VT-d.
* **Virtual-passthrough (Figure 2c)** — the leaf guest's
  :class:`VirtioDriver` is bound to a device *provided by L0*, so kicks
  exit straight to L0's :class:`HostVhost` and the guest hypervisors
  never intervene.

All network drivers support multiqueue (one RX/TX pair per worker, RSS
steering via :attr:`Packet.queue_hint`), matching the multi-worker
application benchmarks.  The native baseline uses
:class:`NativeNicDriver`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.hw.devices.nic import Packet, PhysicalNic, VirtualFunction
from repro.hw.devices.virtio import VirtioDevice
from repro.hw.ept import EptViolation
from repro.hw.iommu import IommuFault
from repro.hw.lapic import VIRTIO_VECTOR_BASE
from repro.hw.mem import PAGE_SHIFT, PAGE_SIZE, DirtyLog
from repro.hw.ops import Op

__all__ = [
    "VirtioDriver",
    "NativeNicDriver",
    "VfNicDriver",
    "HostVhost",
    "GuestVhost",
    "KICK_VECTOR",
    "RX_POOL_BASE",
    "TX_POOL_BASE",
    "MAX_DESC_LEN",
    "NOTIFY_TIMEOUT_CYCLES",
    "descriptor_ok",
]

#: Vector a backend vCPU receives when its guest kicks (ioeventfd wake).
KICK_VECTOR = 0x30
#: Base guest addresses of driver buffer pools (per-queue strides).
RX_POOL_BASE = 0x4000_0000
TX_POOL_BASE = 0x6000_0000
QUEUE_POOL_STRIDE = 0x0800_0000
#: ioeventfd signalling cost (host-side wake of a vhost worker).
IOEVENTFD_SIGNAL = 450
#: Buffers posted per RX queue.
RX_BUFFERS = 128
#: Largest descriptor length a backend accepts; anything bigger (or
#: non-positive, or with a negative address) is malformed and must be
#: completed with zero bytes instead of moving garbage.
MAX_DESC_LEN = 1 << 20
#: Cycles a backend waits for an expected notification before its
#: watchdog re-checks the rings (the requeue path for lost kicks).
NOTIFY_TIMEOUT_CYCLES = 500_000


def descriptor_ok(addr: int, length: int) -> bool:
    """Sanity-check a descriptor a backend is about to service."""
    return 0 <= addr and 0 < length <= MAX_DESC_LEN


class VirtioDriver:
    """Guest-side virtio-net driver (any level, multiqueue)."""

    def __init__(
        self,
        ctx,
        device: VirtioDevice,
        buf_size: int = 65536,
    ) -> None:
        self.ctx = ctx  # default context (queue 0 owner)
        self._machine = ctx.machine
        self.device = device
        self.buf_size = buf_size
        device.bound_driver = self
        #: Per queue pair: (context, vector) receiving its interrupts.
        self._queue_dest: Dict[int, Tuple[Any, int]] = {}
        self._tx_seq: Dict[int, int] = {}
        for pair in range(device.num_queue_pairs):
            self.bind_queue(pair, ctx, VIRTIO_VECTOR_BASE + pair)
            rxq = device.rx_q(pair)
            base = self._rx_addr(pair, 0)
            n = min(RX_BUFFERS, rxq.size // 2)
            rxq.prefill(range(base, base + n * buf_size, buf_size), buf_size)

    # ------------------------------------------------------------------
    def _rx_addr(self, pair: int, slot: int) -> int:
        return RX_POOL_BASE + pair * QUEUE_POOL_STRIDE + slot * self.buf_size

    def _tx_addr(self, pair: int, slot: int) -> int:
        return TX_POOL_BASE + pair * QUEUE_POOL_STRIDE + slot * self.buf_size

    def bind_queue(self, pair: int, ctx, vector: int) -> None:
        """Route queue ``pair``'s interrupts to ``ctx`` (RSS/irq affinity)."""
        self._queue_dest[pair] = (ctx, vector)
        self.device.msi_vectors[pair] = vector

    def queue_dest(self, pair: int) -> Tuple[Any, int]:
        return self._queue_dest[pair]

    # Compatibility accessors for single-queue users (blk-style).
    @property
    def irq_dest(self):
        return self._queue_dest[0][0]

    @property
    def costs(self):
        return self._machine.costs

    # ------------------------------------------------------------------
    # TX
    # ------------------------------------------------------------------
    def send(
        self,
        size: int,
        payload: Any = None,
        kick: bool = True,
        queue: int = 0,
        ctx=None,
    ) -> Generator:
        """Queue one message on TX queue ``queue`` and optionally kick.
        ``ctx`` overrides the executing context (a worker sending on its
        own queue)."""
        ctx = ctx if ctx is not None else self._queue_dest[queue][0]
        c = self._machine.costs
        yield from ctx.compute(
            int(c.driver_per_packet + c.guest_per_byte * min(size, 16384))
        )
        # Opportunistically reclaim completed TX descriptors (drivers do
        # this on the send path to avoid TX-completion interrupts).
        txq = self.device.tx_q(queue)
        if txq.last_used < txq.used_idx:
            txq.reap_used()
        seq = self._tx_seq.get(queue, 0)
        self._tx_seq[queue] = seq + 1
        addr = self._tx_addr(queue, seq % 128)
        ctx.mem_write(addr, min(size, self.buf_size))
        txq.add_buffer(addr, size, payload)
        yield c.ring_access
        if kick:
            yield from self.kick(queue, ctx=ctx)

    def kick(self, queue: int = 0, ctx=None) -> Generator:
        """Ring queue ``queue``'s doorbell.  Returns the doorbell write's
        generator to drive with ``yield from`` (no frame of its own, so
        each yield of the trap it causes resumes one generator fewer)."""
        ctx = ctx if ctx is not None else self._queue_dest[queue][0]
        return ctx.execute(
            Op.MMIO_WRITE,
            addr=self.device.notify_addr,
            value=2 * queue + 1,  # tx queue index in the flat layout
            device=self.device,
        )

    # ------------------------------------------------------------------
    # RX
    # ------------------------------------------------------------------
    def poll_rx(self, queue: int = 0, ctx=None) -> Generator:
        """Reap received messages from queue ``queue``; repost buffers.
        Returns ``[(size, payload), ...]``."""
        ctx = ctx if ctx is not None else self._queue_dest[queue][0]
        c = self.costs
        rxq = self.device.rx_q(queue)
        out: List[Tuple[int, Any]] = []
        total = 0
        for _desc, written, payload in rxq.reap_used():
            out.append((written, payload))
            total += written
        for _ in out:
            rxq.add_buffer(self._rx_addr(queue, rxq.avail_idx % RX_BUFFERS), self.buf_size)
        if out:
            yield from ctx.compute(
                int(len(out) * c.driver_per_packet + c.guest_per_byte * min(total, 65536))
            )
        return out


class NativeNicDriver:
    """Bare-metal NIC driver for the native baseline (multiqueue)."""

    def __init__(self, ctx, nic: PhysicalNic, flow: str) -> None:
        self.ctx = ctx
        self.nic = nic
        self.flow = flow
        self._queue_dest: Dict[int, Tuple[Any, int]] = {0: (ctx, VIRTIO_VECTOR_BASE)}
        self._rx: Dict[int, List[Packet]] = {0: []}
        nic.register_flow(flow, self._on_rx)

    @property
    def costs(self):
        return self.ctx.machine.costs

    def bind_queue(self, pair: int, ctx, vector: int) -> None:
        self._queue_dest[pair] = (ctx, vector)
        self._rx.setdefault(pair, [])

    def _on_rx(self, packet: Packet) -> None:
        q = packet.queue_hint if packet.queue_hint in self._queue_dest else 0
        self._rx[q].append(packet)
        ctx, vector = self._queue_dest[q]
        self.ctx.machine.deliver_native_interrupt(ctx.cpu.idx, vector)

    def send(self, size: int, payload: Any = None, kick: bool = True,
             queue: int = 0, ctx=None) -> Generator:
        ctx = ctx if ctx is not None else self._queue_dest[queue][0]
        c = self.costs
        yield from ctx.compute(
            int(c.driver_per_packet + c.guest_per_byte * min(size, 16384))
        )
        machine = self.ctx.machine
        self.nic.tx(Packet(self.flow, size, payload=payload), machine.client.receive)

    def poll_rx(self, queue: int = 0, ctx=None) -> Generator:
        ctx = ctx if ctx is not None else self._queue_dest[queue][0]
        c = self.costs
        packets = self._rx[queue]
        out = [(p.size, p.payload) for p in packets]
        total = sum(p.size for p in packets)
        packets.clear()
        if out:
            yield from ctx.compute(
                int(len(out) * c.driver_per_packet + c.guest_per_byte * min(total, 65536))
            )
        return out


class VfNicDriver:
    """Driver for a passed-through SR-IOV virtual function (Figure 2b)."""

    def __init__(
        self,
        ctx,
        vf: VirtualFunction,
        flow: str,
        buf_size: int = 65536,
    ) -> None:
        self.ctx = ctx
        self.vf = vf
        self.flow = flow
        self.buf_size = buf_size
        self._queue_dest: Dict[int, Tuple[Any, int]] = {0: (ctx, VIRTIO_VECTOR_BASE)}
        self._rx: Dict[int, List[Packet]] = {0: []}
        self._rx_slot = 0
        vf.bound_driver = self
        vf.pf.register_flow(flow, self._on_rx)

    @property
    def machine(self):
        return self.ctx.machine

    @property
    def costs(self):
        return self.machine.costs

    def bind_queue(self, pair: int, ctx, vector: int) -> None:
        self._queue_dest[pair] = (ctx, vector)
        self._rx.setdefault(pair, [])

    def _on_rx(self, packet: Packet) -> None:
        """VF hardware RX: IOMMU-translated DMA + VT-d posted interrupt."""
        machine = self.machine
        q = packet.queue_hint if packet.queue_hint in self._queue_dest else 0
        iova = RX_POOL_BASE + (self._rx_slot % RX_BUFFERS) * self.buf_size
        self._rx_slot += 1
        try:
            host_addr = machine.iommu.translate(self.vf, iova, write=True)
        except IommuFault:
            # The IOMMU blocked the DMA write: the packet is dropped on
            # the floor, exactly like real VT-d fault-logging hardware.
            machine.metrics.record_recovery("dma_abort")
            machine.metrics.count("rx_drops")
            return
        machine.memory.write_range(host_addr, min(packet.size, self.buf_size))
        self._rx[q].append(packet)
        ctx, vector = self._queue_dest[q]
        ctx.mem_write(iova, min(packet.size, self.buf_size))
        ctx.pi_desc.post(vector)
        machine.metrics.record_interrupt("vf", "posted")
        ctx.pcpu.wake()

    def send(self, size: int, payload: Any = None, kick: bool = True,
             queue: int = 0, ctx=None) -> Generator:
        ctx = ctx if ctx is not None else self._queue_dest[queue][0]
        c = self.costs
        yield from ctx.compute(
            int(c.driver_per_packet + c.guest_per_byte * min(size, 16384))
        )
        # Doorbell: the BAR is mapped through, so this does not trap.
        yield from ctx.execute(
            Op.MMIO_WRITE, addr=self._doorbell_addr(), value=0, device=self.vf
        )
        machine = self.machine
        try:
            machine.iommu.translate(self.vf, TX_POOL_BASE, write=False)  # DMA read
        except IommuFault:
            machine.metrics.record_recovery("dma_abort")
            return
        self.vf.pf.tx(Packet(self.flow, size, payload=payload), machine.client.receive)

    def _doorbell_addr(self) -> int:
        base = self.vf.bars[0].base
        return (base if base is not None else 0) + 0x100

    def poll_rx(self, queue: int = 0, ctx=None) -> Generator:
        ctx = ctx if ctx is not None else self._queue_dest[queue][0]
        c = self.costs
        packets = self._rx[queue]
        out = [(p.size, p.payload) for p in packets]
        total = sum(p.size for p in packets)
        packets.clear()
        if out:
            yield from ctx.compute(
                int(len(out) * c.driver_per_packet + c.guest_per_byte * min(total, 65536))
            )
        return out


class HostVhost:
    """L0 vhost worker: bridges an L0-provided virtio device to the NIC.

    Serves both the classic virtual-I/O model (device used by the L1 VM)
    and virtual-passthrough (device assigned through to a nested VM —
    then ``translate`` goes through the shadow IOMMU table and RX writes
    feed the device dirty log used by DVH migration, §3.6).
    """

    def __init__(
        self,
        l0,
        device: VirtioDevice,
        user_vm,
        flow: str,
        translate: Optional[Callable[[int, bool], int]] = None,
    ) -> None:
        self.l0 = l0
        self.machine = l0.machine
        self.device = device
        self.user_vm = user_vm
        self.flow = flow
        self.translate = translate
        self._wake = self.machine.sim.event("vhost-wake")
        self._rx_backlog: Deque[Packet] = deque()
        self._running = False
        #: DVH migration support (§3.6): pages the device DMAs into, in
        #: user-VM guest-physical frames (drained via the PCI migration
        #: capability).
        self.dirty_log: Optional[DirtyLog] = None
        #: Pause flag for the stop-and-copy migration phase.
        self.paused = False
        device.on_kick = self._on_kick
        self.machine.nic.register_flow(flow, self.on_rx_packet)
        l0.backends[device] = self

    # ------------------------------------------------------------------
    def start(self) -> None:
        if not self._running:
            self._running = True
            self.machine.sim.spawn(self._run(), f"vhost:{self.device.name}")

    def _on_kick(self, queue_index: int) -> None:
        self.machine.metrics.count("vhost_kicks")
        self._signal()

    def on_rx_packet(self, packet: Packet) -> None:
        self._rx_backlog.append(packet)
        self._signal()

    def _signal(self) -> None:
        ev = self._wake
        self._wake = self.machine.sim.event("vhost-wake")
        ev.trigger()

    def pause(self) -> None:
        """Stop processing (migration stop-and-copy)."""
        self.paused = True

    def resume(self) -> None:
        """Resume processing and drain anything queued while paused."""
        self.paused = False
        self._signal()

    # ------------------------------------------------------------------
    def has_pending_work(self) -> bool:
        """Whether any ring or backlog holds unserviced work."""
        if self._rx_backlog:
            return True
        return any(
            self.device.tx_q(pair).avail_pending
            for pair in range(self.device.num_queue_pairs)
        )

    def requeue_lost_notification(self) -> bool:
        """Notification-timeout watchdog: if work is pending but no
        signal arrived (a kick was lost in flight), re-signal the worker
        so the request is requeued instead of stranded.  Returns True if
        a requeue was needed."""
        if self.paused or not self.has_pending_work():
            return False
        self.machine.metrics.record_recovery("virtio_requeue")
        self._signal()
        return True

    # ------------------------------------------------------------------
    def _run(self) -> Generator:
        machine = self.machine
        metrics = machine.metrics
        c = machine.costs
        per_packet, per_byte = c.vhost_per_packet, c.vhost_per_byte
        nic = machine.nic
        to_client = machine.client.receive
        device = self.device
        pairs = device.num_queue_pairs
        tx_queues = [device.tx_q(pair) for pair in range(pairs)]
        rx_queues = [device.rx_q(pair) for pair in range(pairs)]
        backlog = self._rx_backlog
        while True:
            had_work = False
            if not self.paused:
                # --- TX: guest -> wire (all queues) ----------------
                for txq in tx_queues:
                    while txq.last_avail < txq.avail_idx:
                        desc_id, addr, size, payload = txq.pop_avail()
                        had_work = True
                        if not descriptor_ok(addr, size):
                            # Malformed descriptor (guest bug or ring
                            # corruption): complete with zero bytes so
                            # the ring stays consistent, never touch the
                            # bogus address.
                            metrics.record_recovery("virtio_malformed_drop")
                            txq.push_used(desc_id, 0)
                            continue
                        cost = per_packet + per_byte * size
                        metrics.charge("vhost", cost)
                        yield int(cost)
                        if self.translate is not None:
                            try:
                                self.translate(addr, False)
                            except (EptViolation, IommuFault):
                                # DMA translation fault: abort this
                                # request, keep the device alive.
                                metrics.record_recovery("dma_abort")
                                txq.push_used(desc_id, 0)
                                continue
                        txq.push_used(desc_id, size)
                        nic.tx(Packet(self.flow, size, payload), to_client)
                # --- RX: wire -> guest ------------------------------
                while backlog:
                    packet = backlog.popleft()
                    pair = packet.queue_hint if packet.queue_hint < pairs else 0
                    rxq = rx_queues[pair]
                    slot = rxq.pop_avail()
                    if slot is None:
                        metrics.count("rx_drops")
                        continue
                    desc_id, addr, _buflen, _ = slot
                    had_work = True
                    if not descriptor_ok(addr, _buflen):
                        metrics.record_recovery("virtio_malformed_drop")
                        rxq.push_used(desc_id, 0)
                        continue
                    cost = per_packet + per_byte * packet.size
                    metrics.charge("vhost", cost)
                    yield int(cost)
                    if self.translate is not None:
                        try:
                            self.translate(addr, True)
                        except (EptViolation, IommuFault):
                            metrics.record_recovery("dma_abort")
                            rxq.push_used(desc_id, 0)
                            continue
                    self.user_vm.memory.write_range(
                        addr, min(packet.size, PAGE_SIZE * 16)
                    )
                    if self.dirty_log is not None:
                        # The device log covers all of packet.size, while the
                        # memory write above is clamped to 16 pages; the two
                        # ranges differ for larger packets.
                        self.dirty_log.mark_run(
                            addr >> PAGE_SHIFT,
                            ((addr + packet.size - 1) >> PAGE_SHIFT) + 1,
                        )
                    rxq.push_used(desc_id, packet.size, packet.payload)
                    driver = device.bound_driver
                    if driver is not None:
                        ctx, vector = driver.queue_dest(pair)
                        yield from self.l0.deliver_l0_device_interrupt(ctx, vector)
            if not had_work:
                yield self._wake


class GuestVhost:
    """A guest hypervisor's virtio backend for its nested VM's device.

    Runs on a dedicated backend vCPU of the hypervisor's VM (a vhost
    worker thread), relaying all queues through the hypervisor's own
    device one level down — Figure 2a's cascade of virtual I/O devices.
    """

    def __init__(self, hv, guest_device: VirtioDevice, lower, ctx) -> None:
        self.hv = hv
        self.machine = hv.machine
        self.guest_device = guest_device
        self.lower = lower  # VirtioDriver (or VfNicDriver) one level down
        self.ctx = ctx  # backend vCPU of the hypervisor's VM
        # All lower-device interrupts land on the backend vCPU (a single
        # vhost worker thread services every queue).
        if hasattr(lower, "device"):
            for pair in range(lower.device.num_queue_pairs):
                lower.bind_queue(pair, ctx, VIRTIO_VECTOR_BASE + pair)
        guest_device.on_kick = lambda q: None  # kicks arrive via MMIO exits
        hv.backends[guest_device] = self
        self._running = False

    def start(self) -> None:
        if not self._running:
            self._running = True
            self.machine.sim.spawn(
                self._run(), f"gvhost-L{self.hv.level}:{self.guest_device.name}"
            )

    # ------------------------------------------------------------------
    def notify_from_guest(self, handler_ctx) -> Generator:
        """Called inside the hypervisor's MMIO exit handler: signal the
        vhost worker (ioeventfd + worker wakeup)."""
        yield IOEVENTFD_SIGNAL
        self.ctx.pi_desc.post(KICK_VECTOR)
        self.ctx.pcpu.wake()

    def has_pending_work(self) -> bool:
        """Whether any guest TX ring holds unserviced buffers."""
        return any(
            self.guest_device.tx_q(pair).avail_pending
            for pair in range(self.guest_device.num_queue_pairs)
        )

    def requeue_lost_notification(self) -> bool:
        """Notification-timeout watchdog (same contract as
        :meth:`HostVhost.requeue_lost_notification`): re-post the kick
        vector to the backend vCPU when work is stranded."""
        if not self.has_pending_work():
            return False
        self.machine.metrics.record_recovery("virtio_requeue")
        self.ctx.pi_desc.post(KICK_VECTOR)
        self.ctx.pcpu.wake()
        return True

    # ------------------------------------------------------------------
    def _run(self) -> Generator:
        machine = self.machine
        metrics = machine.metrics
        c = machine.costs
        per_packet, per_byte = c.vhost_per_packet, c.vhost_per_byte
        ctx = self.ctx
        lower = self.lower
        guest_device = self.guest_device
        pairs = guest_device.num_queue_pairs
        tx_queues = [guest_device.tx_q(pair) for pair in range(pairs)]
        rx_queues = [guest_device.rx_q(pair) for pair in range(pairs)]
        lower_device = getattr(lower, "device", None)
        if lower_device is not None:
            last = lower_device.num_queue_pairs - 1
            tx_lower = [min(pair, last) for pair in range(pairs)]
            rx_lower = tx_lower
            # A lower RX queue with no completions would hand back
            # nothing: test its used ring instead of polling it.
            lower_rx = [lower_device.rx_q(lp) for lp in rx_lower]
        else:
            tx_lower = [0] * pairs
            rx_lower = list(range(pairs))
            lower_rx = None
        while True:
            yield from ctx.wait_for_interrupt()
            # --- TX: nested VM -> lower device ---------------------
            for pair, txq in enumerate(tx_queues):
                while txq.last_avail < txq.avail_idx:
                    desc_id, _addr, size, payload = txq.pop_avail()
                    if not descriptor_ok(_addr, size):
                        metrics.record_recovery("virtio_malformed_drop")
                        txq.push_used(desc_id, 0)
                        continue
                    cost = per_packet + per_byte * size
                    metrics.charge("ghv_vhost", cost)
                    yield from ctx.compute(int(cost))
                    txq.push_used(desc_id, size)
                    yield from lower.send(size, payload, True, tx_lower[pair], ctx)
            # --- RX: lower device -> nested VM ---------------------
            # Track which guest queues got data so each bound worker is
            # interrupted exactly once per batch.
            touched: Dict[int, int] = {}
            for pair, rxq in enumerate(rx_queues):
                if lower_rx is not None:
                    used = lower_rx[pair]
                    if used.last_used >= used.used_idx:
                        continue
                received = yield from lower.poll_rx(rx_lower[pair], ctx=ctx)
                for packet_size, payload in received:
                    slot = rxq.pop_avail()
                    if slot is None:
                        metrics.count("rx_drops")
                        break
                    desc_id, addr, _buflen, _ = slot
                    if not descriptor_ok(addr, _buflen):
                        metrics.record_recovery("virtio_malformed_drop")
                        rxq.push_used(desc_id, 0)
                        continue
                    cost = per_packet + per_byte * packet_size
                    metrics.charge("ghv_vhost", cost)
                    yield from ctx.compute(int(cost))
                    rxq.push_used(desc_id, packet_size, payload=payload)
                    vm = guest_device.bound_driver.irq_dest.vm
                    vm.memory.write_range(addr, min(packet_size, PAGE_SIZE * 16))
                    touched[pair] = touched.get(pair, 0) + 1
            for pair in touched:
                driver = guest_device.bound_driver
                target, vector = driver.queue_dest(pair)
                yield from self.hv.inject_interrupt(ctx, target, vector)
                l0 = self.hv._hv_at(0)
                # Without posted-interrupt support reaching the nested VM,
                # the target also pays a guest-hypervisor-mediated
                # injection exit.
                l0.charge_injection(target, "virtio")
                l0.wake_target(target)
