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
  takes one path and different flows spread across spines.  Racks,
  spine and trunks are resolved once per (src, dst) pair and cached as
  the pair's route.

The ``cross_host`` metrics table and fault classes keep working:
per-link faults target hosts as before, and trunks are addressable as
``rack{r}:spine{s}`` in ``fabric_partition`` mechanisms.  A partitioned
trunk refuses new transfers over routes through it, and a frame whose
route crosses it is dropped at delivery if the partition opened while
the frame was in flight.
"""

from __future__ import annotations

import zlib
from typing import Dict, Tuple

from repro.cluster.fabric import Fabric, FabricPort, Route
from repro.hw.devices.nic import Wire

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
    # Data path
    # ------------------------------------------------------------------
    def _build_route(self, src: str, dst: str) -> Route:
        """Intra-rack pairs take the base leaf path; cross-rack pairs add
        the ECMP spine's up and down trunks between the two leaves."""
        src_port, hops, _trunks = super()._build_route(src, dst)
        src_rack, dst_rack = self.rack_of[src], self.rack_of[dst]
        if src_rack == dst_rack:
            return src_port, hops, ()
        spine = self.spine_for(src, dst)
        up, down = hops
        return src_port, (
            up,
            (self.trunks[(src_rack, spine)], "out", self.costs.spine_switch_latency),
            (self.trunks[(dst_rack, spine)], "in", self.costs.fabric_switch_latency),
            down,
        ), (self.trunk_name(src_rack, spine), self.trunk_name(dst_rack, spine))

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
