"""The fault injector: turns a :class:`FaultPlan` into hook installs
and scheduled events on one machine.

Design rules that make injection deterministic and non-perturbing:

* The injector owns its **own** ``random.Random(seed)``; it never
  touches the simulator's generator, so the workload's random choices
  are identical with and without faults.
* Hooks are only installed for fault classes the plan actually
  contains, and randomness is only consumed when a hook fires.  An
  empty plan therefore leaves the machine bit-for-bit untouched.
* Point faults (spurious interrupts, ring corruption) are scheduled on
  the simulation clock at attach time, so their firing times are a pure
  function of ``(plan, seed)``.

Recovery paths exercised by the injector's faults:

* lost kicks -> a one-shot notification-timeout probe calls the
  backend's ``requeue_lost_notification`` (counted ``virtio_requeue``);
* malformed descriptors -> hardened backends complete them with zero
  bytes (``virtio_malformed_drop``);
* injected IOMMU faults -> DMA aborts, device stays alive
  (``dma_abort``);
* migration link flaps -> bounded retry-with-backoff in
  :class:`~repro.core.migration.LiveMigration` (``migration_retry``);
* faulted DVH capability bits -> :func:`degrade_config` falls back to
  the paravirtual I/O model (``dvh_fallback``).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from typing import List, Optional

from repro.core.features import fallback_io_model, negotiate
from repro.faults.chains import ChainTracker
from repro.faults.plan import FaultClass, FaultPlan, FaultSpec
from repro.hw.lapic import VIRTIO_VECTOR_BASE
from repro.hv.stack import build_stack
from repro.hv.virtio_backend import KICK_VECTOR, NOTIFY_TIMEOUT_CYCLES

__all__ = ["FaultInjector", "build_faulted_stack", "degrade_config"]

#: Vectors the irq_drop class may swallow: virtio completion vectors and
#: backend kick wakeups.  Timer and IPI vectors are exempt so safety
#: timers stay reliable and blocked vCPUs always have a way back.
_DROPPABLE_VECTORS = frozenset(
    range(VIRTIO_VECTOR_BASE, VIRTIO_VECTOR_BASE + 8)
) | {KICK_VECTOR}

#: Truncated size a corrupted packet arrives with.
_CORRUPT_SIZE = 1


def degrade_config(config, plan: FaultPlan):
    """Apply a plan's DVH capability faults to a stack config *before*
    building: capability negotiation drops the faulted mechanisms and the
    I/O model falls back gracefully (virtual-passthrough -> virtio).

    Returns ``(config, dropped_mechanisms)``.  The config is returned
    unchanged when the plan has no ``dvh_cap_fault`` spec.
    """
    mechanisms = plan.faulted_mechanisms()
    if not mechanisms:
        return config, []
    granted, dropped = negotiate(config.dvh, mechanisms)
    io_model = fallback_io_model(config.io_model, granted)
    return replace(config, dvh=granted, io_model=io_model), dropped


def build_faulted_stack(config, plan: FaultPlan, seed: int = 0):
    """Degrade the config per the plan's capability faults, build the
    stack, and attach an injector.  Returns ``(stack, injector)``."""
    config, dropped = degrade_config(config, plan)
    stack = build_stack(config)
    # Per-chain exit accounting for check_invariants; lives outside
    # Metrics so run digests are unchanged by its presence.
    stack.machine.chain_tracker = ChainTracker()
    # Only the faulted mechanisms count as injections: negotiation also
    # prunes dependency-unsatisfied defaults, which is not a fault.
    faulted_drops = [m for m in dropped if m in plan.faulted_mechanisms()]
    if faulted_drops:
        for _ in faulted_drops:
            stack.metrics.record_fault(FaultClass.DVH_CAP_FAULT)
        stack.metrics.record_recovery("dvh_fallback")
    injector = FaultInjector(stack.machine, plan, seed=seed).attach(stack)
    return stack, injector


class FaultInjector:
    """Injects one plan's faults into one machine, deterministically."""

    def __init__(self, machine, plan: FaultPlan, seed: int = 0) -> None:
        self.machine = machine
        self.plan = plan
        self.seed = seed
        self.rng = random.Random((seed << 1) ^ 0x5EED_FA01)
        #: Local mirror of what was injected (metrics hold the same
        #: counts; this survives metric diffs/copies).
        self.injected: Counter = Counter()
        self._attached = False

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, stack=None) -> "FaultInjector":
        """Install hooks and schedule point faults.  ``stack`` gives
        access to devices/backends/vCPUs; without it only the machine's
        own NIC/IOMMU hooks and the migration wire are covered."""
        if self._attached:
            raise RuntimeError("injector already attached")
        self._attached = True
        self.machine.faults = self
        plan = self.plan
        if plan.is_empty:
            return self
        # The "machine" may also be a cluster Fabric (it quacks enough:
        # sim + metrics); hardware hooks then simply have nowhere to go.
        nic = getattr(self.machine, "nic", None)
        if nic is not None and (
            plan.spec_for(FaultClass.NIC_DROP)
            or plan.spec_for(FaultClass.NIC_CORRUPT)
        ):
            nic.fault_hook = self._nic_hook
        iommu = getattr(self.machine, "iommu", None)
        if iommu is not None and plan.spec_for(FaultClass.IOMMU_FAULT):
            iommu.fault_hook = self._iommu_hook
        if stack is not None:
            if plan.spec_for(FaultClass.VIRTIO_KICK_DROP):
                self._hook_kicks(stack)
            if plan.spec_for(FaultClass.IRQ_DROP):
                for ctx in stack.ctxs:
                    if hasattr(ctx, "lapic"):
                        ctx.lapic.fault_hook = self._irq_hook
            spec = plan.spec_for(FaultClass.IRQ_SPURIOUS)
            if spec is not None:
                self._schedule_spurious(stack, spec)
            spec = plan.spec_for(FaultClass.VIRTIO_MALFORMED)
            if spec is not None:
                self._schedule_corruption(stack, spec)
        spec = plan.spec_for(FaultClass.OOH_GRANT_REVOKE)
        if spec is not None:
            self._schedule_grant_revoke(spec)
        return self

    def _hook_kicks(self, stack) -> None:
        """Lost doorbells on host-provided devices, each paired with a
        notification-timeout probe that requeues the stranded work."""
        for hv in stack.hvs:
            for device, backend in getattr(hv, "backends", {}).items():
                if not hasattr(backend, "requeue_lost_notification"):
                    continue
                device.fault_hook = self._make_kick_hook(backend)

    def _make_kick_hook(self, backend):
        spec = self.plan.spec_for(FaultClass.VIRTIO_KICK_DROP)
        sim = self.machine.sim

        def hook(queue_index: int) -> bool:
            if not spec.active(sim.now):
                return False
            if self.rng.random() >= spec.rate:
                return False
            self._record(FaultClass.VIRTIO_KICK_DROP)
            # The hardening under test: a one-shot watchdog probe fires
            # after the notification timeout and requeues lost work.
            sim.call_after(
                NOTIFY_TIMEOUT_CYCLES, backend.requeue_lost_notification
            )
            return True

        return hook

    # ------------------------------------------------------------------
    # Hook implementations (rate-based)
    # ------------------------------------------------------------------
    def _record(self, kind: str) -> None:
        self.injected[kind] += 1
        self.machine.metrics.record_fault(kind)

    def _nic_hook(self, direction: str, packet):
        now = self.machine.sim.now
        spec = self.plan.spec_for(FaultClass.NIC_DROP)
        if spec is not None and spec.active(now):
            if self.rng.random() < spec.rate:
                self._record(FaultClass.NIC_DROP)
                return None
        spec = self.plan.spec_for(FaultClass.NIC_CORRUPT)
        if spec is not None and spec.active(now):
            if self.rng.random() < spec.rate:
                self._record(FaultClass.NIC_CORRUPT)
                return replace(packet, size=_CORRUPT_SIZE, payload=None)
        return packet

    def _irq_hook(self, vector: int) -> bool:
        if vector not in _DROPPABLE_VECTORS:
            return False
        spec = self.plan.spec_for(FaultClass.IRQ_DROP)
        if spec is None or not spec.active(self.machine.sim.now):
            return False
        if self.rng.random() < spec.rate:
            self._record(FaultClass.IRQ_DROP)
            return True
        return False

    def _iommu_hook(self, device, iova: int, write: bool) -> bool:
        spec = self.plan.spec_for(FaultClass.IOMMU_FAULT)
        if spec is None or not spec.active(self.machine.sim.now):
            return False
        if self.rng.random() < spec.rate:
            self._record(FaultClass.IOMMU_FAULT)
            return True
        return False

    # ------------------------------------------------------------------
    # Scheduled point faults
    # ------------------------------------------------------------------
    def _fire_times(self, spec: FaultSpec) -> List[int]:
        sim = self.machine.sim
        lo = max(spec.start, sim.now + 1)
        hi = spec.end if spec.end is not None else lo + 20_000_000
        if hi <= lo:
            hi = lo + 1_000_000
        return sorted(self.rng.randrange(lo, hi) for _ in range(spec.count))

    def _schedule_spurious(self, stack, spec: FaultSpec) -> None:
        """Spurious virtio-completion interrupts on worker vCPUs."""
        ctxs = [c for c in stack.ctxs if hasattr(c, "lapic")]
        if not ctxs:
            return
        sim = self.machine.sim
        for t in self._fire_times(spec):
            ctx = self.rng.choice(ctxs)
            vector = VIRTIO_VECTOR_BASE + self.rng.randrange(4)
            sim.call_at(t, self._make_spurious(ctx, vector))

    def _make_spurious(self, ctx, vector: int):
        def fire() -> None:
            self._record(FaultClass.IRQ_SPURIOUS)
            ctx.lapic.irr.add(vector)  # bypass the drop hook: this IS a fault
            if hasattr(ctx, "pcpu"):
                ctx.pcpu.wake()

        return fire

    def _schedule_corruption(self, stack, spec: FaultSpec) -> None:
        """Malform pending TX descriptors on host-provided devices at
        scheduled points; hardened backends must drop, not crash."""
        devices = []
        for hv in stack.hvs:
            for device, backend in getattr(hv, "backends", {}).items():
                # Net devices only: their flat queue layout is rx/tx
                # pairs, so tx_q() is well-defined.
                if getattr(device, "kind", None) == "net" and len(device.queues) >= 2:
                    devices.append(device)
        if not devices:
            return
        sim = self.machine.sim
        for t in self._fire_times(spec):
            device = self.rng.choice(devices)
            pair = self.rng.randrange(device.num_queue_pairs)
            bad_len = self.rng.choice((0, -1, 1 << 28))
            sim.call_at(t, self._make_corruption(device, pair, bad_len))

    def _make_corruption(self, device, pair: int, bad_len: int):
        def fire() -> None:
            q = device.tx_q(pair)
            if q.corrupt_next_avail(length=bad_len):
                self._record(FaultClass.VIRTIO_MALFORMED)

        return fire

    def _schedule_grant_revoke(self, spec: FaultSpec) -> None:
        """Revoke OoH grants at the spec's start time: the host reclaims
        the real virtual hardware and the guest hypervisor's granted
        exits fall back to forwarded emulation (counted as the
        ``ooh_fallback`` recovery)."""
        ooh = getattr(self.machine, "ooh", None)
        if ooh is None:
            return
        sim = self.machine.sim
        features = spec.mechanisms or ooh.configured_names()

        def fire() -> None:
            for feature in features:
                if ooh.revoke(feature):
                    self._record(FaultClass.OOH_GRANT_REVOKE)
                    self.machine.metrics.record_recovery("ooh_fallback")

        sim.call_at(max(spec.start, sim.now + 1), fire)

    # ------------------------------------------------------------------
    # Migration-wire consultation (duck-typed by LiveMigration)
    # ------------------------------------------------------------------
    def migration_bandwidth_factor(self) -> float:
        spec = self.plan.spec_for(FaultClass.MIG_BANDWIDTH)
        if spec is None or not spec.active(self.machine.sim.now):
            return 1.0
        self._record(FaultClass.MIG_BANDWIDTH)
        return spec.param if spec.param is not None else 0.5

    def migration_link_down(self) -> bool:
        spec = self.plan.spec_for(FaultClass.MIG_LINK_FLAP)
        if spec is None:
            return False
        if spec.active(self.machine.sim.now):
            self._record(FaultClass.MIG_LINK_FLAP)
            return True
        return False

    def migration_loss_rate(self) -> float:
        spec = self.plan.spec_for(FaultClass.MIG_LOSS)
        if spec is None or not spec.active(self.machine.sim.now):
            return 0.0
        self._record(FaultClass.MIG_LOSS)
        return spec.param if spec.param is not None else 0.05

    # ------------------------------------------------------------------
    # Fabric consultation (duck-typed by repro.cluster.fabric.Fabric).
    # A cluster attaches one injector to the Fabric itself — it exposes
    # ``sim`` and ``metrics`` like a Machine, so the same injector class
    # covers both scopes.  ``spec.mechanisms`` names the targeted hosts
    # (empty tuple = the fault hits every host).
    # ------------------------------------------------------------------
    def _fabric_window_active(self, kind: str, host: Optional[str]) -> bool:
        spec = self.plan.spec_for(kind)
        if spec is None or not spec.active(self.machine.sim.now):
            return False
        if spec.mechanisms and host is not None and host not in spec.mechanisms:
            return False
        self._record(kind)
        return True

    def fabric_link_down(self, host: Optional[str] = None) -> bool:
        """Is ``host``'s ToR link inside a partition window right now?"""
        return self._fabric_window_active(FaultClass.FABRIC_PARTITION, host)

    def fabric_host_lost(self, host: Optional[str] = None) -> bool:
        """Has ``host`` dropped off the fabric entirely?"""
        return self._fabric_window_active(FaultClass.FABRIC_HOST_LOSS, host)

    def fabric_bandwidth_factor(self) -> float:
        """Fraction of nominal link bandwidth currently available."""
        spec = self.plan.spec_for(FaultClass.FABRIC_DEGRADE)
        if spec is None or not spec.active(self.machine.sim.now):
            return 1.0
        self._record(FaultClass.FABRIC_DEGRADE)
        return spec.param if spec.param is not None else 0.25

    # ------------------------------------------------------------------
    def summary(self) -> Counter:
        """Faults injected so far, by class."""
        return Counter(self.injected)
