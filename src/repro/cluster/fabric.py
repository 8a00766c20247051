"""The datacenter fabric: a top-of-rack switch connecting cluster hosts.

One :class:`Fabric` models a ToR switch.  Every host attaches through a
:class:`FabricPort` — a full-duplex :class:`~repro.hw.devices.nic.Wire`
(40 GbE uplink by default, see ``CostModel.fabric_bps``) — and frames
hop host -> uplink -> switching core -> downlink -> host, store-and-
forward, with each wire serializing independently.  Everything runs on
the cluster's single shared simulator, so fabric contention (two
migrations squeezing through one downlink) is emergent and
deterministic.

Cross-host traffic is metered in the cluster-level
:class:`~repro.metrics.Metrics` ``cross_host`` table, keyed by
``(src_host, dst_host, kind)`` — the table stays empty on single-machine
runs, keeping the cluster layer zero-cost when unused.

Fault classes (``fabric_partition``, ``fabric_host_loss``,
``fabric_degrade``) are consulted lazily through an attached
:class:`~repro.faults.FaultInjector`, mirroring how the migration wire
consults migration-fault classes: the cluster attaches the injector to
the Fabric itself (it exposes ``sim``/``metrics`` like a Machine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from repro.hw.devices.nic import Wire
from repro.metrics import Metrics

__all__ = ["FabricFrame", "FabricPort", "Fabric", "UndeliverableError"]

#: One hop of a route: a wire, its direction and the switch latency
#: after the frame arrives at its far end (None on the last hop).
Hop = Tuple[Wire, str, Optional[int]]
#: A cached route: the source port, the hops, and the fault names of the
#: trunks the hops cross (none on a single ToR).
Route = Tuple["FabricPort", Tuple[Hop, ...], Tuple[str, ...]]


class UndeliverableError(RuntimeError):
    """A frame could not be delivered: unknown destination, or the
    destination link or a trunk on the route goes dark while the frame
    is in flight."""


@dataclass(slots=True)
class FabricFrame:
    """One message on the fabric (a jumbo frame / GSO burst)."""

    src: str
    dst: str
    #: Traffic class for metering: "migration", "net", or "control".
    kind: str
    size: int
    payload: Any = None
    #: Optional completion event: triggered with the frame on delivery,
    #: or with ``None`` if the frame is lost mid-flight (host loss).
    notify: Any = None


class FabricPort:
    """One host's attachment point: a full-duplex uplink wire.

    The "out" direction carries host -> switch traffic, "in" carries
    switch -> host.  ``receiver`` is the host-side consumer for
    delivered frames (installed by the cluster host; frames with no
    receiver are dropped like unconsumed NIC packets).
    """

    __slots__ = ("fabric", "host", "wire", "receiver", "frames")

    def __init__(self, fabric: "Fabric", host: str, wire: Wire) -> None:
        self.fabric = fabric
        self.host = host
        self.wire = wire
        self.receiver: Optional[Callable[[FabricFrame], None]] = None
        self.frames = {"tx": 0, "rx": 0}

    @property
    def bytes_carried(self) -> Dict[str, int]:
        return self.wire.bytes_carried


class _Transit:
    """One frame's trip along its route: ``arrive`` at the far end of hop
    ``hop``, then ``forward`` onto the next hop once the switch latency
    has passed.  Each step is a heap callback's tail action, so when it
    is due by :meth:`Simulator.run_ahead_limit` it would be popped next
    anyway and :meth:`_then` runs it directly.  The first hop is
    scheduled by :meth:`Fabric.send` and never runs early."""

    __slots__ = ("fabric", "frame", "hops", "hop", "on_wire")

    def __init__(self, fabric: "Fabric", frame: FabricFrame, hops, on_wire) -> None:
        self.fabric, self.frame, self.hops, self.on_wire = fabric, frame, hops, on_wire
        self.hop = 0

    def _then(self, when: int, step: Callable[[], None]) -> None:
        sim = self.fabric.sim
        limit = sim.run_ahead_limit()
        if limit is None or when <= limit:
            sim.transit_hops_ahead += 1
            sim.now = when
            step()
        else:
            sim.call_at(when, step)

    def arrive(self) -> None:
        latency = self.hops[self.hop][2]
        if latency is None:
            self.fabric._deliver(self.frame)
        else:
            self._then(self.fabric.sim.now + latency, self.forward)

    def forward(self) -> None:
        self.hop += 1
        wire, direction, _latency = self.hops[self.hop]
        self._then(wire.occupy(direction, self.on_wire), self.arrive)


class Fabric:
    """A deterministic top-of-rack switch over the shared simulator."""

    def __init__(self, sim, costs, name: str = "tor0") -> None:
        self.sim = sim
        self.costs = costs
        self.name = name
        #: Cluster-level metrics (the ``cross_host`` table lives here).
        self.metrics = Metrics()
        self.ports: Dict[str, FabricPort] = {}
        #: Attached FaultInjector (or None): consulted for partition /
        #: host-loss / bandwidth-collapse windows.
        self.faults = None
        #: Hosts administratively dark (rebooting for a kernel upgrade):
        #: their links behave exactly like a host-loss fault window.
        #: Empty on plain clusters — zero behavior change.
        self.admin_down: set = set()
        #: Frames dropped because the destination was unknown or lost.
        self.undeliverable = 0
        #: (src, dst) -> (src_port, hops, trunks); see :meth:`_route`.
        self._routes: Dict[Tuple[str, str], Route] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, host: str) -> FabricPort:
        """Attach ``host`` with a fresh uplink; returns its port."""
        if host in self.ports:
            raise ValueError(f"{host} already attached to {self.name}")
        wire = Wire(self.sim, self.costs.fabric_bps, self.costs.fabric_latency)
        port = FabricPort(self, host, wire)
        self.ports[host] = port
        return port

    def port(self, host: str) -> FabricPort:
        try:
            return self.ports[host]
        except KeyError:
            raise UndeliverableError(f"{host} is not attached to {self.name}")

    # ------------------------------------------------------------------
    # Fault state
    # ------------------------------------------------------------------
    def link_blocked(self, host: str) -> bool:
        """Is traffic through ``host``'s port currently impossible?
        True inside a partition window for that host's link, while the
        host itself is lost, or while an operator holds it down."""
        if host in self.admin_down:
            return True
        if self.faults is None:
            return False
        return self.faults.fabric_link_down(host) or self.faults.fabric_host_lost(
            host
        )

    def path_blocked(self, src: str, dst: str) -> bool:
        """A frame src -> dst needs both ports, and every trunk on its
        route, usable."""
        if self.link_blocked(src) or self.link_blocked(dst):
            return True
        if self.faults is None or src not in self.ports or dst not in self.ports:
            return False
        return self._trunk_down(src, dst)

    def _trunk_down(self, src: str, dst: str) -> bool:
        """Is a trunk on the src -> dst route inside a partition window?"""
        faults = self.faults
        return any(faults.fabric_link_down(trunk) for trunk in self._route(src, dst)[2])

    def bandwidth_factor(self) -> float:
        if self.faults is None:
            return 1.0
        return max(0.01, self.faults.fabric_bandwidth_factor())

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _route(self, src: str, dst: str) -> Route:
        """``(src_port, hops, trunks)`` for frames src -> dst, built on
        first use; hosts are never detached, so a route never goes
        stale."""
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[(src, dst)] = self._build_route(src, dst)
        return route

    def _build_route(self, src: str, dst: str) -> Route:
        """Host -> uplink -> switching core -> downlink -> host."""
        src_port = self.port(src)
        dst_port = self.port(dst)  # fail fast on unknown dst
        return src_port, (
            (src_port.wire, "out", self.costs.fabric_switch_latency),
            (dst_port.wire, "in", None),
        ), ()

    def send(self, frame: FabricFrame) -> None:
        """Inject ``frame`` at the source port; it serializes on each
        wire of its route in turn, store-and-forward, and lands in the
        destination port's receiver.  Fire-and-forget, like a NIC tx:
        :meth:`transfer` waits for delivery."""
        src_port, hops, _trunks = self._route(frame.src, frame.dst)
        factor = self.bandwidth_factor()
        # Degraded links stretch serialization: the same frame occupies
        # the (rate-renegotiated) wire longer, expressed as extra
        # on-wire bytes so Wire's busy-until bookkeeping stays exact.
        on_wire = frame.size if factor >= 1.0 else int(frame.size / factor)
        src_port.frames["tx"] += 1
        transit = _Transit(self, frame, hops, on_wire)
        wire, direction, _latency = hops[0]
        self.sim.call_at(wire.occupy(direction, on_wire), transit.arrive)

    def _deliver(self, frame: FabricFrame) -> None:
        # The event keeps the frame as its value: clearing notify first
        # leaves no frame <-> event cycle for the cyclic GC to free.
        notify = frame.notify
        frame.notify = None
        if frame.dst in self.admin_down or (
            self.faults is not None and self._faulted_in_flight(frame)
        ):
            self.undeliverable += 1
            self.metrics.count("fabric_undeliverable")
            if notify is not None:
                notify.trigger(None)
            return
        port = self.ports.get(frame.dst)
        self.metrics.record_cross_host(frame.src, frame.dst, frame.kind, frame.size)
        self.metrics.count("fabric_frames")
        if port is not None:
            port.frames["rx"] += 1
            if port.receiver is not None:
                port.receiver(frame)
        if notify is not None:
            notify.trigger(frame)

    def _faulted_in_flight(self, frame: FabricFrame) -> bool:
        """Did the destination link, or a trunk on the frame's route, go
        dark while the frame was in flight?  The source link is not
        consulted: the frame has already left it."""
        faults = self.faults
        dst = frame.dst
        return (
            faults.fabric_link_down(dst)
            or faults.fabric_host_lost(dst)
            or self._trunk_down(frame.src, dst)
        )

    # ------------------------------------------------------------------
    # Blocking transfer (for generator processes)
    # ------------------------------------------------------------------
    def transfer(
        self, src: str, dst: str, size: int, kind: str, payload: Any = None
    ) -> Generator:
        """Send one frame and wait for its delivery; a process-protocol
        sub-routine (``yield from fabric.transfer(...)``).  Raises
        :class:`UndeliverableError` if either port is blocked at send
        time — callers own retry policy."""
        if self.path_blocked(src, dst):
            raise UndeliverableError(f"path {src} -> {dst} is partitioned")
        done = self.sim.event(f"fabric:{src}->{dst}")
        frame = FabricFrame(
            src=src, dst=dst, kind=kind, size=size, payload=payload, notify=done
        )
        self.send(frame)
        result = yield done
        if result is None:
            raise UndeliverableError(f"frame {src} -> {dst} lost in flight")
        return result

    def frame_cycles(
        self, size: int, src: Optional[str] = None, dst: Optional[str] = None
    ) -> int:
        """Uncontended cycles for one frame end to end: every hop of the
        src -> dst route serializes, propagates and crosses its switch.
        Without attached endpoints, the one-switch path."""
        if src in self.ports and dst in self.ports:
            freq = self.sim.freq_hz
            return sum(
                int(size * 8 / wire.bps * freq) + wire.latency + (switch or 0)
                for wire, _direction, switch in self._route(src, dst)[1]
            )
        serialization = int(size * 8 / self.costs.fabric_bps * self.sim.freq_hz)
        return (
            2 * serialization
            + 2 * self.costs.fabric_latency
            + self.costs.fabric_switch_latency
        )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Fabric-wide counters for reports."""
        return {
            "hosts": len(self.ports),
            "frames": int(self.metrics.events.get("fabric_frames", 0)),
            "bytes": self.metrics.cross_host_bytes(),
            "migration_bytes": self.metrics.cross_host_bytes("migration"),
            "net_bytes": self.metrics.cross_host_bytes("net"),
            "undeliverable": self.undeliverable,
        }
