"""Block storage: the testbed's SATA SSD.

Requests complete after a fixed device latency plus transfer time; the
device processes one request at a time per queue (enough fidelity for the
MySQL workload's fsync-bound commit path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.hw.pci import Capability, CapabilityId, PciDevice

__all__ = ["BlockRequest", "SsdDevice"]

#: Sustained transfer rate of the Intel DC S3500 480GB (about 500 MB/s read).
SSD_BYTES_PER_SEC = 500_000_000


@dataclass(slots=True)
class BlockRequest:
    op: str  # "read" | "write" | "flush"
    size: int
    payload: Any = None


class SsdDevice(PciDevice):
    """The physical SSD, serviced FIFO with latency + bandwidth."""

    def __init__(self, name: str, sim, costs) -> None:
        super().__init__(name, 0x8086, 0x0953, bar_sizes=[0x2000])
        self.add_capability(Capability(CapabilityId.PCIE, {}))
        self.sim = sim
        self.costs = costs
        self._busy_until = 0

    def submit(self, request: BlockRequest, on_complete: Callable[[BlockRequest], None]) -> int:
        """Queue a request; returns its completion time."""
        service = self.costs.ssd_latency
        if request.op != "flush":
            service += int(request.size / SSD_BYTES_PER_SEC * self.sim.freq_hz)
        start = max(self.sim.now, self._busy_until)
        done = start + service
        self._busy_until = done
        self.sim.call_at(done, lambda: on_complete(request))
        return done
