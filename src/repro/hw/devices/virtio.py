"""Virtio paravirtual devices: virtqueues and the PCI device model.

These are the "virtual I/O devices" of the paper's traditional model
(Figure 2a) and the devices that get *assigned* under virtual-passthrough
(Figure 2c).  They are PCI devices with standard BARs and capability lists
precisely because virtual-passthrough requires virtual devices that
conform to the physical device interface specification (§3.1: "PCI-based
virtual I/O devices are widely available and are assignable").

The virtqueue implements real descriptor/avail/used index arithmetic with
wraparound, so ring invariants are testable properties; buffer addresses
are guest-physical and must be translated by whoever moves the data.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.hw.pci import Capability, CapabilityId, PciDevice

__all__ = ["VirtqueueFull", "Virtqueue", "VirtioDevice", "NOTIFY_OFFSET"]

#: Offset of the queue-notify doorbell inside BAR0.
NOTIFY_OFFSET = 0x100

VIRTIO_VENDOR = 0x1AF4
VIRTIO_NET_DEVICE = 0x1000
VIRTIO_BLK_DEVICE = 0x1001


class VirtqueueFull(Exception):
    """No free descriptors."""


class Virtqueue:
    """One virtqueue: descriptor table + avail ring + used ring."""

    def __init__(self, index: int, size: int = 256) -> None:
        if size <= 0 or size & (size - 1):
            raise ValueError("virtqueue size must be a power of two")
        self.index = index
        self.size = size
        #: Descriptor table, one list per field (indexed by descriptor
        #: id), and both rings, made on the first post (most queues
        #: never post a buffer); ``None`` until then.
        self.desc_addr: Optional[List[int]] = None
        self.desc_len: Optional[List[int]] = None
        self.desc_in_use: Optional[List[bool]] = None
        self.desc_payload: Optional[List[Any]] = None
        self.avail_ring: Optional[List[int]] = None
        self.used_ring: Optional[List[Tuple[int, int]]] = None
        #: Reaped ids, reused last-in first-out ahead of ``_unused``.
        self._free: List[int] = []
        #: Ids ``0 .. _unused - 1`` were never handed out; they sit
        #: beneath ``_free`` and come out highest first, so ids are issued
        #: in the same order as from a stack preloaded with every id.
        self._unused = size
        # Ring state: monotonically increasing indices, slots = idx % size.
        self.avail_idx = 0  # driver-owned producer index
        self.last_avail = 0  # device-owned consumer index
        self.used_idx = 0  # device-owned producer index
        self.last_used = 0  # driver-owned consumer index

    # ------------------------------------------------------------------
    # Driver (guest) side
    # ------------------------------------------------------------------
    def prefill(self, addrs: Sequence[int], length: int) -> None:
        """Post one ``length``-byte buffer at each of ``addrs`` on a queue
        that has never posted, leaving the same ids, table and rings as
        one :meth:`add_buffer` per address (no payloads): ids
        ``size - 1`` downward, in ``addrs`` order.  Raises
        ``ValueError`` on a queue that has posted, and
        :class:`VirtqueueFull` (posting nothing) for more addresses than
        the queue has descriptors."""
        if self.desc_addr is not None:
            raise ValueError(f"queue {self.index} has already posted")
        size, n = self.size, len(addrs)
        if n > size:
            raise VirtqueueFull(f"queue {self.index} has {size} descriptors, not {n}")
        if not n:
            return
        idle = size - n
        # Id ``size - 1 - i`` holds ``addrs[i]``.
        self.desc_addr = [0] * idle + list(addrs[::-1])
        self.desc_len = [0] * idle + [length] * n
        self.desc_in_use = [False] * idle + [True] * n
        self.desc_payload = [None] * size
        self.avail_ring = list(range(size - 1, idle - 1, -1)) + [0] * idle
        self.used_ring = [(0, 0)] * size
        self._unused = idle
        self.avail_idx = n

    def add_buffer(self, addr: int, length: int, payload: Any = None) -> int:
        """Post a buffer; returns the descriptor id."""
        free = self._free
        if not free and not self._unused:
            raise VirtqueueFull(f"queue {self.index} has no free descriptors")
        size = self.size
        if self.avail_idx - self.last_avail >= size:
            raise VirtqueueFull(f"queue {self.index} avail ring full")
        if self.desc_addr is None:
            self.desc_addr = [0] * size
            self.desc_len = [0] * size
            self.desc_in_use = [False] * size
            self.desc_payload = [None] * size
            self.avail_ring = [0] * size
            self.used_ring = [(0, 0)] * size
        if free:
            desc_id = free.pop()
        else:
            self._unused -= 1
            desc_id = self._unused
        self.desc_addr[desc_id] = addr
        self.desc_len[desc_id] = length
        self.desc_in_use[desc_id] = True
        self.desc_payload[desc_id] = payload
        self.avail_ring[self.avail_idx % size] = desc_id
        self.avail_idx += 1
        return desc_id

    def reap_used(self) -> List[Tuple[int, int, Any]]:
        """Collect completions: list of (desc_id, written_len, payload)."""
        out = []
        while self.last_used < self.used_idx:
            desc_id, written = self.used_ring[self.last_used % self.size]
            out.append((desc_id, written, self.desc_payload[desc_id]))
            self.desc_in_use[desc_id] = False
            self.desc_payload[desc_id] = None
            self._free.append(desc_id)
            self.last_used += 1
        return out

    # ------------------------------------------------------------------
    # Device side
    # ------------------------------------------------------------------
    def pop_avail(self) -> Optional[Tuple[int, int, int, Any]]:
        """Take the next posted buffer: (desc_id, addr, len, payload)."""
        if self.last_avail >= self.avail_idx:
            return None
        desc_id = self.avail_ring[self.last_avail % self.size]
        self.last_avail += 1
        return (
            desc_id,
            self.desc_addr[desc_id],
            self.desc_len[desc_id],
            self.desc_payload[desc_id],
        )

    _KEEP = object()

    def push_used(self, desc_id: int, written: int, payload: Any = _KEEP) -> None:
        """Complete a buffer; ``payload`` (if given) replaces the
        descriptor's payload — how a device hands received data to the
        driver."""
        in_use = self.desc_in_use
        if in_use is None or not in_use[desc_id]:
            raise ValueError(f"descriptor {desc_id} not in use")
        if payload is not Virtqueue._KEEP:
            self.desc_payload[desc_id] = payload
        self.used_ring[self.used_idx % self.size] = (desc_id, written)
        self.used_idx += 1

    # ------------------------------------------------------------------
    # Fault injection (see repro.faults)
    # ------------------------------------------------------------------
    def corrupt_next_avail(self, addr: Optional[int] = None,
                           length: Optional[int] = None) -> bool:
        """Malform the next descriptor the device will pop (a guest bug
        or memory corruption on the shared ring).  Returns False when no
        buffer is pending.  Hardened backends must detect the malformed
        descriptor and recover instead of crashing or moving bad data."""
        if self.last_avail >= self.avail_idx:
            return False
        desc_id = self.avail_ring[self.last_avail % self.size]
        if addr is not None:
            self.desc_addr[desc_id] = addr
        if length is not None:
            self.desc_len[desc_id] = length
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def avail_pending(self) -> int:
        """Buffers posted by the driver and not yet consumed."""
        return self.avail_idx - self.last_avail

    @property
    def used_pending(self) -> int:
        """Completions not yet reaped by the driver."""
        return self.used_idx - self.last_used

    @property
    def free_descriptors(self) -> int:
        return len(self._free) + self._unused


class VirtioDevice(PciDevice):
    """A virtio PCI device (net or blk).

    The *backend* (who services kicks and fills RX rings) is attached by
    the hypervisor that provides the device; the *driver* runs in whatever
    guest the device is visible to — possibly a nested VM when the device
    has been virtually passed through.
    """

    def __init__(
        self,
        name: str,
        kind: str = "net",
        num_queues: int = 2,
        queue_size: int = 256,
        provider_level: int = 0,
    ) -> None:
        device_id = VIRTIO_NET_DEVICE if kind == "net" else VIRTIO_BLK_DEVICE
        super().__init__(name, VIRTIO_VENDOR, device_id, bar_sizes=[0x4000])
        self.kind = kind
        #: Virtualization level of the hypervisor providing this device
        #: (0 = host hypervisor: required for virtual-passthrough).
        self.provider_level = provider_level
        self.queues: List[Virtqueue] = [
            Virtqueue(i, queue_size) for i in range(num_queues)
        ]
        self.add_capability(Capability(CapabilityId.MSIX, {"table_size": num_queues}))
        self.add_capability(Capability(CapabilityId.PCIE, {}))
        #: queue index -> MSI vector the driver configured.
        self.msi_vectors: dict = {}
        #: Called on a doorbell write: fn(queue_index).
        self.on_kick: Optional[Callable[[int], None]] = None
        #: Fault-injection hook (see repro.faults): called as
        #: ``hook(queue_index)`` on every doorbell; returning True
        #: swallows the notification (a lost kick).
        self.fault_hook: Optional[Callable[[int], bool]] = None

    # Conventional queue layout for virtio-net: pairs [rx0, tx0, rx1,
    # tx1, ...] (multiqueue, one pair per worker under RSS).
    @property
    def num_queue_pairs(self) -> int:
        return max(1, len(self.queues) // 2)

    def rx_q(self, pair: int) -> Virtqueue:
        return self.queues[2 * pair]

    def tx_q(self, pair: int) -> Virtqueue:
        return self.queues[2 * pair + 1]

    @property
    def rx(self) -> Virtqueue:
        return self.rx_q(0)

    @property
    def tx(self) -> Virtqueue:
        return self.tx_q(0)

    def mmio_write(self, addr: int, value: Any) -> None:
        """Doorbell: value = queue index."""
        bar = self.bar_of(addr)
        if bar is None or addr - bar.base != NOTIFY_OFFSET:
            # Config writes: ignore contents, they are setup-time only.
            return
        if self.fault_hook is not None and self.fault_hook(int(value)):
            return  # notification lost in flight
        if self.on_kick is not None:
            self.on_kick(int(value))

    def mmio_read(self, addr: int) -> Any:
        return 0

    @property
    def notify_addr(self) -> int:
        base = self.bars[0].base
        if base is None:
            raise RuntimeError(f"{self.name} not plugged into a bus")
        return base + NOTIFY_OFFSET
