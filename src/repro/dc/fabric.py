"""A spine-leaf datacenter fabric: racks of hosts behind leaf switches,
leaves cross-connected through a spine tier.

Generalizes the single-ToR :class:`~repro.cluster.fabric.Fabric`:

* every host keeps its full-duplex uplink to its rack's **leaf** (the
  ToR role; ``CostModel.fabric_bps`` / ``fabric_latency``);
* every (rack, spine) pair gets a **trunk**
  :class:`~repro.hw.devices.nic.Wire` whose bandwidth encodes the
  configured oversubscription ratio:
  ``trunk_bps = hosts_per_rack * fabric_bps / (spines * oversub)`` — at
  1:1 the spine tier can absorb every host uplink at line rate, at 4:1
  cross-rack traffic contends for a quarter of that;
* **intra-rack** frames take host -> leaf -> host, exactly the base
  fabric's store-and-forward path — intra-rack stays cheap;
* **cross-rack** frames take host -> leaf -> trunk -> spine -> trunk ->
  leaf -> host, serializing on both trunks, so concurrent evacuation
  waves squeeze through the spine tier realistically;
* path selection is **deterministic ECMP-by-hash**: the (src, dst) pair
  picks a spine via CRC-32 (a stable hash — Python's randomized
  ``hash()`` would break run-to-run determinism), so one flow always
  takes one path and different flows spread across spines.

The ``cross_host`` metrics table and fault classes keep working:
per-link faults target hosts as before, and trunks are addressable as
``rack{r}:spine{s}`` in ``fabric_partition`` mechanisms.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

from repro.cluster.fabric import Fabric, FabricFrame, FabricPort, UndeliverableError
from repro.hw.devices.nic import Packet, Wire

__all__ = ["SpineLeafFabric"]


class SpineLeafFabric(Fabric):
    """Hierarchical host -> leaf -> spine fabric on the shared clock."""

    def __init__(
        self,
        sim,
        costs,
        racks: int = 2,
        hosts_per_rack: int = 2,
        spines: int = 2,
        oversubscription: float = 4.0,
        name: str = "dcfab0",
    ) -> None:
        if racks < 1 or hosts_per_rack < 1 or spines < 1:
            raise ValueError("racks, hosts_per_rack and spines must be >= 1")
        if oversubscription <= 0:
            raise ValueError("oversubscription must be positive")
        super().__init__(sim, costs, name=name)
        self.racks = racks
        self.hosts_per_rack = hosts_per_rack
        self.spines = spines
        self.oversubscription = float(oversubscription)
        #: host name -> rack index.
        self.rack_of: Dict[str, int] = {}
        #: Aggregate uplink each rack offers the spine tier, split across
        #: the per-spine trunks and shrunk by the oversubscription ratio.
        self.trunk_bps = max(
            1.0,
            hosts_per_rack * costs.fabric_bps / (spines * self.oversubscription),
        )
        #: (rack, spine) -> trunk wire.  "out" carries rack -> spine.
        self.trunks: Dict[Tuple[int, int], Wire] = {}
        for r in range(racks):
            for s in range(spines):
                self.trunks[(r, s)] = Wire(sim, self.trunk_bps, costs.spine_latency)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, host: str, rack: int = 0) -> FabricPort:
        """Attach ``host`` in ``rack``; returns its leaf-uplink port."""
        if not 0 <= rack < self.racks:
            raise ValueError(f"rack {rack} out of range (0..{self.racks - 1})")
        port = super().attach(host)
        self.rack_of[host] = rack
        return port

    @staticmethod
    def trunk_name(rack: int, spine: int) -> str:
        """The name fault mechanisms use to target one trunk."""
        return f"rack{rack}:spine{spine}"

    def spine_for(self, src: str, dst: str) -> int:
        """Deterministic ECMP: hash the flow's endpoints to a spine."""
        return zlib.crc32(f"{src}|{dst}".encode()) % self.spines

    # ------------------------------------------------------------------
    # Fault state
    # ------------------------------------------------------------------
    def trunk_blocked(self, rack: int, spine: int) -> bool:
        """Is a leaf<->spine trunk inside a partition window?"""
        if self.faults is None:
            return False
        return self.faults.fabric_link_down(self.trunk_name(rack, spine))

    def path_blocked(self, src: str, dst: str) -> bool:
        if super().path_blocked(src, dst):
            return True
        src_rack = self.rack_of.get(src)
        dst_rack = self.rack_of.get(dst)
        if src_rack is None or dst_rack is None or src_rack == dst_rack:
            return False
        spine = self.spine_for(src, dst)
        return self.trunk_blocked(src_rack, spine) or self.trunk_blocked(
            dst_rack, spine
        )

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, frame: FabricFrame) -> None:
        src_port = self.port(frame.src)
        dst_port = self.port(frame.dst)  # fail fast on unknown dst
        try:
            src_rack = self.rack_of[frame.src]
            dst_rack = self.rack_of[frame.dst]
        except KeyError as exc:
            raise UndeliverableError(f"{exc.args[0]} has no rack on {self.name}")
        factor = self.bandwidth_factor()
        on_wire = frame.size if factor >= 1.0 else int(frame.size / factor)
        src_port.frames["tx"] += 1
        pkt = Packet(
            flow=f"{frame.src}->{frame.dst}",
            size=frame.size,
            payload=frame,
            inbound=False,
        )
        if src_rack == dst_rack:
            # Intra-rack: host -> leaf -> host, the base fabric's path.
            src_port.wire.transmit(
                pkt,
                lambda p: self._at_switch(p, dst_port, on_wire),
                wire_size=on_wire,
            )
            return

        spine = self.spine_for(frame.src, frame.dst)
        up_trunk = self.trunks[(src_rack, spine)]
        down_trunk = self.trunks[(dst_rack, spine)]

        def at_src_leaf(p: Packet) -> None:
            # Store-and-forward through the source leaf, then uphill.
            def fwd() -> None:
                tp = Packet(flow=p.flow, size=frame.size, payload=frame, inbound=False)
                up_trunk.transmit(tp, at_spine, wire_size=on_wire)

            self.sim.call_after(self.costs.fabric_switch_latency, fwd)

        def at_spine(p: Packet) -> None:
            def fwd() -> None:
                tp = Packet(flow=p.flow, size=frame.size, payload=frame, inbound=True)
                down_trunk.transmit(tp, at_dst_leaf, wire_size=on_wire)

            self.sim.call_after(self.costs.spine_switch_latency, fwd)

        def at_dst_leaf(p: Packet) -> None:
            # The base handler is exactly the leaf -> host hop:
            # leaf store-and-forward latency, downlink, delivery.
            self._at_switch(p, dst_port, on_wire)

        src_port.wire.transmit(pkt, at_src_leaf, wire_size=on_wire)

    def frame_cycles(
        self, size: int, src: Optional[str] = None, dst: Optional[str] = None
    ) -> int:
        """Uncontended end-to-end estimate.  Without endpoints (or for
        intra-rack pairs) this is the base leaf path; cross-rack pairs
        add two trunk serializations, two trunk propagations, the second
        leaf, and the spine core."""
        base = super().frame_cycles(size)
        if src is None or dst is None:
            return base
        src_rack = self.rack_of.get(src)
        dst_rack = self.rack_of.get(dst)
        if src_rack is None or dst_rack is None or src_rack == dst_rack:
            return base
        trunk_serialization = int(size * 8 / self.trunk_bps * self.sim.freq_hz)
        return (
            base
            + self.costs.fabric_switch_latency  # second leaf core
            + 2 * trunk_serialization
            + 2 * self.costs.spine_latency
            + self.costs.spine_switch_latency
        )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        out = super().stats()
        out["racks"] = self.racks
        out["spines"] = self.spines
        out["trunk_bytes"] = sum(
            w.bytes_carried["out"] + w.bytes_carried["in"]
            for w in self.trunks.values()
        )
        return out
