"""Physical NIC, SR-IOV virtual functions, and the wire.

Models the testbed's dual-port Intel X520 10 Gb NIC: a PCI device with
SR-IOV (so VFs can be passed through to VMs/nested VMs) and a shared
10 Gb/s wire with serialization delay — the line-rate ceiling that caps
the netperf STREAM/MAERTS workloads.

Packets are delivered to *flow consumers*: the host network stack (vhost
bridging), or a VF bound to a guest driver (device passthrough).  DMA from
a VF goes through the physical IOMMU, exactly like Figure 3a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.hw.pci import Capability, CapabilityId, PciDevice

__all__ = ["Packet", "Wire", "PhysicalNic", "VirtualFunction", "RemoteClient"]


@dataclass(slots=True)
class Packet:
    """One wire message (a TCP segment / aggregated GRO batch)."""

    flow: str
    size: int
    payload: Any = None
    #: True for client->server direction.
    inbound: bool = True
    #: RSS queue hint: which receive queue (worker) this flow hashes to.
    queue_hint: int = 0


class Wire:
    """A full-duplex link with rate limiting and propagation latency.

    Each direction serializes independently: a packet occupies the wire
    for ``size * 8 / bps`` seconds, then propagates with fixed latency.
    """

    def __init__(self, sim, bps: float, latency_cycles: int) -> None:
        self.sim = sim
        self.bps = bps
        self.latency = latency_cycles
        self._busy_until = {"in": 0, "out": 0}
        self.bytes_carried = {"in": 0, "out": 0}

    def transmit(
        self,
        packet: Packet,
        deliver: Callable[[Packet], None],
        wire_size: Optional[int] = None,
    ) -> int:
        """Schedule delivery of ``packet``; returns the delivery time.
        ``wire_size`` (default ``packet.size``) is the on-wire byte count
        including protocol headers."""
        size = packet.size if wire_size is None else wire_size
        arrival = self.occupy("in" if packet.inbound else "out", size)
        self.sim.call_at(arrival, lambda: deliver(packet))
        return arrival

    def occupy(self, direction: str, on_wire: int) -> int:
        """Serialize ``on_wire`` bytes in ``direction`` ("in" or "out")
        behind that direction's backlog; returns the cycle the last byte
        arrives at the far end.  Scheduling the arrival is the caller's."""
        sim = self.sim
        now = sim.now
        serialization = int(on_wire * 8 / self.bps * sim.freq_hz)
        busy = self._busy_until
        start = busy[direction]
        if start < now:
            start = now
        done = start + serialization
        busy[direction] = done
        # Meter what actually occupied the wire (protocol headers
        # included), not the goodput — metering goodput here made the
        # carried-bytes counter drift below the time the wire was busy.
        self.bytes_carried[direction] += on_wire
        return done + self.latency

    def busy_until(self, inbound: bool) -> int:
        """When the given direction's current backlog finishes
        serializing (<= now means the direction is idle)."""
        return self._busy_until["in" if inbound else "out"]


class PhysicalNic(PciDevice):
    """The host's physical NIC (PF) with SR-IOV support."""

    VENDOR = 0x8086
    DEVICE = 0x10FB  # 82599 / X520

    def __init__(self, name: str, wire: Wire, num_vfs: int = 8) -> None:
        super().__init__(name, self.VENDOR, self.DEVICE, bar_sizes=[0x8000])
        self.wire = wire
        self.add_capability(Capability(CapabilityId.PCIE, {}))
        self.add_capability(
            Capability(CapabilityId.SRIOV, {"total_vfs": num_vfs, "num_vfs": 0})
        )
        self.add_capability(Capability(CapabilityId.MSIX, {"table_size": 64}))
        self.vfs: List["VirtualFunction"] = []
        #: flow id -> consumer callback for inbound packets.
        self._flow_consumers: Dict[str, Callable[[Packet], None]] = {}
        #: Fault-injection hook (see repro.faults): called as
        #: ``hook(direction, packet)`` with direction "rx" or "tx";
        #: returns the (possibly corrupted) packet, or None to drop it.
        self.fault_hook: Optional[Callable[[str, Packet], Optional[Packet]]] = None

    # ------------------------------------------------------------------
    # SR-IOV
    # ------------------------------------------------------------------
    def create_vf(self) -> "VirtualFunction":
        cap = self.find_capability(CapabilityId.SRIOV)
        assert cap is not None
        if cap.registers["num_vfs"] >= cap.registers["total_vfs"]:
            raise RuntimeError(f"{self.name}: out of VFs")
        vf = VirtualFunction(f"{self.name}.vf{len(self.vfs)}", self)
        cap.registers["num_vfs"] += 1
        self.vfs.append(vf)
        return vf

    # ------------------------------------------------------------------
    # Flow steering
    # ------------------------------------------------------------------
    def register_flow(self, flow: str, consumer: Callable[[Packet], None]) -> None:
        """Steer inbound packets of ``flow`` to ``consumer``."""
        self._flow_consumers[flow] = consumer

    def unregister_flow(self, flow: str) -> None:
        self._flow_consumers.pop(flow, None)

    def rx(self, packet: Packet) -> None:
        """A packet arrived from the wire."""
        if self.fault_hook is not None:
            faulted = self.fault_hook("rx", packet)
            if faulted is None:
                return  # injected RX drop (DMA/ring fault)
            packet = faulted
        consumer = self._flow_consumers.get(packet.flow)
        if consumer is not None:
            consumer(packet)
        # Unconsumed packets are dropped, as real NICs do.

    def tx(
        self,
        packet: Packet,
        deliver: Callable[[Packet], None],
        wire_size: Optional[int] = None,
    ) -> int:
        """Send a packet out the wire toward the client."""
        if self.fault_hook is not None:
            faulted = self.fault_hook("tx", packet)
            if faulted is None:
                return self.wire.sim.now  # injected TX drop
            packet = faulted
        packet.inbound = False
        return self.wire.transmit(packet, deliver, wire_size=wire_size)

    def mmio_write(self, addr: int, value: Any) -> None:
        # PF register writes are host-setup only; no behaviour needed.
        return

    def mmio_read(self, addr: int) -> Any:
        return 0


class VirtualFunction(PciDevice):
    """An SR-IOV virtual function — assignable to a (nested) VM.

    The VF shares the PF's wire.  Its doorbell BAR is mapped directly
    into the guest under passthrough, so TX kicks don't trap; the cost
    and interrupt behaviour are modelled by the driver/backend layers.
    """

    def __init__(self, name: str, pf: PhysicalNic) -> None:
        super().__init__(name, PhysicalNic.VENDOR, 0x10ED, bar_sizes=[0x4000])
        self.pf = pf
        self.add_capability(Capability(CapabilityId.PCIE, {}))
        self.add_capability(Capability(CapabilityId.MSIX, {"table_size": 4}))
        #: Doorbell callback installed by the bound driver's backend.
        self.on_doorbell: Optional[Callable[[], None]] = None

    def mmio_write(self, addr: int, value: Any) -> None:
        if self.on_doorbell is not None:
            self.on_doorbell()

    def mmio_read(self, addr: int) -> Any:
        return 0


class RemoteClient:
    """The client machine driving the server under test.

    Runs "natively on Linux with the full hardware available" (paper §4),
    so it is modelled as an event source/sink with a small per-transaction
    turnaround cost, never the bottleneck.
    """

    def __init__(self, sim, wire: Wire, nic: PhysicalNic, costs) -> None:
        self.sim = sim
        self.wire = wire
        self.nic = nic
        self.costs = costs
        self._handlers: Dict[str, Callable[[Packet], None]] = {}

    def on_receive(self, flow: str, handler: Callable[[Packet], None]) -> None:
        """Register the client-side handler for server->client packets."""
        self._handlers[flow] = handler

    def off_receive(self, flow: str) -> None:
        """Drop the handler for ``flow``; later packets are discarded
        (the client closed its socket)."""
        self._handlers.pop(flow, None)

    def receive(self, packet: Packet) -> None:
        """A server->client packet arrived at the client NIC."""
        handler = self._handlers.get(packet.flow)
        if handler is not None:
            handler(packet)

    def send(
        self,
        flow: str,
        size: int,
        payload: Any = None,
        queue_hint: int = 0,
        wire_size: Optional[int] = None,
    ) -> None:
        """Transmit one client->server message.  ``wire_size`` (default
        ``size``) is what occupies the wire — protocol headers make it a
        few percent larger than the goodput."""
        pkt = Packet(
            flow=flow, size=size, payload=payload, inbound=True, queue_hint=queue_hint
        )
        self.wire.transmit(pkt, self.nic.rx, wire_size=wire_size)

    def send_after(
        self,
        delay: int,
        flow: str,
        size: int,
        payload: Any = None,
        queue_hint: int = 0,
        wire_size: Optional[int] = None,
    ) -> None:
        """Like :meth:`send`, ``delay`` cycles from now.  ``wire_size``
        is forwarded — dropping it silently under-serialized deferred
        sends relative to immediate ones."""
        self.sim.call_after(
            delay,
            lambda: self.send(
                flow, size, payload, queue_hint, wire_size=wire_size
            ),
        )
