"""The physical machine: CPUs, memory, IOMMU, PCI bus, NIC, SSD, client.

One :class:`Machine` models one testbed server (paper §4: two 10-core
2.2 GHz Xeon Silver 4114 CPUs with hyperthreading disabled, 192 GB RAM,
an Intel DC S3500 SSD and a dual-port Intel X520 10 Gb NIC), plus the
wire to the dedicated client machine.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hw.cpu import NativeContext, PhysicalCpu
from repro.hw.devices.block import SsdDevice
from repro.hw.devices.nic import PhysicalNic, RemoteClient, Wire
from repro.hw.iommu import Iommu
from repro.hw.mem import MemorySpace
from repro.hw.pci import PciBus
from repro.metrics import Metrics
from repro.sim import CostModel, Simulator, default_costs

__all__ = ["Machine"]

MB = 1 << 20
GB = 1 << 30


class Machine:
    """A simulated server with its devices and its remote client."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        costs: Optional[CostModel] = None,
        num_cpus: int = 20,
        memory_bytes: int = 192 * GB,
        seed: int = 0,
    ) -> None:
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.costs = costs if costs is not None else default_costs()
        self.metrics = Metrics()
        self.memory = MemorySpace(memory_bytes, name="host-ram")
        # Stagger TSC boot offsets deterministically; software must get the
        # offset arithmetic right for cross-CPU timer tests to pass.
        self.cpus: List[PhysicalCpu] = [
            PhysicalCpu(i, self.sim, tsc_boot_offset=i * 7) for i in range(num_cpus)
        ]
        self.iommu = Iommu(name="vt-d")
        self.bus = PciBus("host-pci")
        #: Set by the stack builder: the host hypervisor (L0) and the full
        #: hypervisor stack [L0, L1-hv, ...] for nested configurations.
        self.host_hv = None
        self.hv_stack: list = []
        #: Attached fault injector (see repro.faults), or None for a
        #: fault-free machine.  Consulted by the migration wire.
        self.faults = None
        #: OoH grant table (see repro.ooh), or None = no grants
        #: configured.  Consulted by exit routing (grant gates) and the
        #: migration dirty-tracking pricing; None keeps both paths
        #: byte-identical to a build without the feature.
        self.ooh = None
        #: Attached runtime invariant auditor (see repro.audit), or None
        #: = auditing off.  Instrumented sites (live migration) consult
        #: it through ``getattr``-style None guards, so an un-audited
        #: run is byte-identical to one built without the hooks.
        self.audit = None
        #: Monotonic exit-chain id allocator (see repro.hv.dispatch): a
        #: root trap frame gets a fresh chain id, every exit its handlers
        #: cause inherits it.
        self._next_chain_id = 0
        #: Span collector (repro.metrics.spans), or None = tracing off.
        #: Kept off the Metrics object so snapshots and fuzz digests are
        #: identical with tracing on or off.
        self.spans = None
        #: Per-chain exit accounting hook (repro.faults.chains), or None.
        self.chain_tracker = None
        #: Request-lifecycle capture (repro.metrics.hist), or None =
        #: capture off.  Engines guard every observation with a None
        #: check, so the off path allocates nothing — same contract as
        #: spans.  Histogram-only capture writes integer counter tables
        #: and stays fast-forward friendly; retaining individual
        #: records vetoes skipping (see :meth:`_ff_veto`).
        self.request_capture = None
        #: Live migrations in flight on this machine.  While non-zero,
        #: workload fast-forward is vetoed: skipping epochs would lose
        #: the re-dirty records the attached dirty logs must observe.
        self.ff_migrations = 0
        self.wire = Wire(self.sim, self.costs.nic_bps, self.costs.wire_latency)
        self.nic: PhysicalNic = self.bus.plug(PhysicalNic("eth0", self.wire))
        self.ssd: SsdDevice = self.bus.plug(SsdDevice("ssd0", self.sim, self.costs))
        self.client = RemoteClient(self.sim, self.wire, self.nic, self.costs)
        # Fast-forward: this machine's counters are the epoch
        # fingerprint, and any attached observer (auditor, fault
        # injector, span tracer, chain tracker) vetoes skipping — those
        # hooks watch mid-epoch state a macro-event would hide.  A
        # second machine on the same simulator turns skipping off.
        self.sim.ff.attach(self.metrics, self._ff_veto)

    def observer(self) -> Optional[str]:
        """The attached observer that watches mid-run state (None if
        there is none): the auditor, a fault injector, span tracing or a
        chain tracker.  Host-side shortcuts that collapse many steps
        into one refuse while it is set: fast-forward (:meth:`_ff_veto`)
        and every :meth:`Simulator.run_ahead_limit` shortcut."""
        if self.audit is not None:
            return "audit"
        if self.faults is not None:
            return "faults"
        if self.spans is not None:
            return "spans"
        if self.chain_tracker is not None:
            return "chain_tracker"
        return None

    def _ff_veto(self) -> Optional[str]:
        """Why fast-forward must wait (None = go): an attached
        :meth:`observer`, or a live migration whose dirty logs must see
        every re-dirty record."""
        return self.observer() or ("migration" if self.ff_migrations else None)

    # ------------------------------------------------------------------
    # Native execution (the baseline configuration)
    # ------------------------------------------------------------------
    def native_contexts(self, count: int = 4) -> List[NativeContext]:
        """Bare-metal execution contexts for the native baseline (the
        paper's native config uses 4 cores)."""
        if count > len(self.cpus):
            raise ValueError("not enough physical CPUs")
        return [NativeContext(self, self.cpus[i], i) for i in range(count)]

    def deliver_native_interrupt(self, cpu_index: int, vector: int) -> None:
        """Latch an interrupt on a physical CPU's LAPIC and wake it."""
        cpu = self.cpus[cpu_index]
        cpu.lapic.set_irr(vector)
        self.metrics.record_interrupt("native", "direct")
        cpu.wake()

    def cpu(self, idx: int) -> PhysicalCpu:
        return self.cpus[idx]

    # ------------------------------------------------------------------
    # Exit chains and span tracing
    # ------------------------------------------------------------------
    def new_chain_id(self, count: int = 1) -> int:
        """Allocate the id for a new exit chain (root trap frame), or
        ``count`` consecutive ids at once; returns the last one."""
        self._next_chain_id += count
        return self._next_chain_id

    def enable_span_tracing(self, max_chains: int = 4096):
        """Turn on span-level cycle attribution for this machine.

        Returns the :class:`repro.metrics.spans.SpanCollector`.  Tracing
        changes nothing observable about the simulation — only what is
        *recorded* about it."""
        from repro.metrics.spans import SpanCollector

        self.spans = SpanCollector(self.sim, max_chains=max_chains)
        return self.spans

    def enable_request_capture(self, series: str = "requests"):
        """Turn on per-request latency capture for this machine.

        Returns the :class:`repro.metrics.hist.RequestCapture`.  Only
        integer histogram tables are written — deterministic, mergeable,
        and exact under fast-forward."""
        from repro.metrics.hist import RequestCapture

        self.request_capture = RequestCapture(self.metrics, series=series)
        return self.request_capture

    @property
    def freq_hz(self) -> int:
        return self.sim.freq_hz
