"""Pure invariant checks over finished (or settled) runs.

Every function here only *reads* state and returns a list of violation
strings (empty = green), so the same checks serve three callers:

* the :class:`~repro.audit.auditor.Auditor`'s finish pass,
* the scenarios runner's per-run invariants
  (:func:`check_invariants`, which folds :func:`lifecycle_violations`
  in),
* ad-hoc test assertions.
"""

from __future__ import annotations

from typing import List

from repro.faults.plan import FaultClass

__all__ = [
    "check_invariants",
    "lifecycle_violations",
    "fabric_conservation_violations",
    "span_reconciliation_violations",
    "orphaned_process_violations",
]

#: Fault classes that legitimately break fabric byte equalities (see
#: :func:`fabric_conservation_violations`).
_FABRIC_LOSSY = (FaultClass.FABRIC_PARTITION, FaultClass.FABRIC_HOST_LOSS)

#: Tolerance for float cycle accumulation in span reconciliation.
_CYCLE_EPS = 1e-6


def check_invariants(stack) -> List[str]:
    """Check one finished machine run; returns a list of violation
    strings (empty = all green).

    * **Exit conservation** — every hardware exit is either handled by
      L0 or forwarded to exactly one guest hypervisor (preemption-timer
      ticks are L0-internal bookkeeping), machine-wide *and* per exit
      chain (:class:`repro.faults.chains.ChainTracker`);
    * **No lost wakeup** — no halted physical CPU has a vCPU with
      pending interrupts parked on it;
    * **Resource lifecycle** — :func:`lifecycle_violations`;
    * **Cycle conservation** — charged cycles are non-negative and
      bounded by wall-cycles times the CPU count.
    """
    violations: List[str] = []
    metrics = stack.metrics
    machine = stack.machine

    # Exit conservation across levels.  Preemption-timer ticks are
    # L0-internal bookkeeping (recorded, never handled/forwarded), and a
    # vCPU parked inside L0's HLT emulation at drain time has its exit
    # recorded but completes the handled side only on wake — so the only
    # legal slack is up to one in-flight ``hlt`` per halted pCPU.
    total = metrics.total_exits()
    handled = sum(metrics.l0_handled.values())
    forwarded = sum(metrics.forwards.values())
    preempt = metrics.exits_for_reason("preemption_timer")
    slack = total - handled - forwarded - preempt
    halted = sum(1 for cpu in machine.cpus if cpu.halted)
    if not 0 <= slack <= halted:
        violations.append(
            f"exit conservation: {total} exits != {handled} L0-handled + "
            f"{forwarded} forwarded + {preempt} preemption ticks "
            f"(slack {slack} outside [0, {halted} halted pCPUs])"
        )
    else:
        # The slack must be entirely in-flight HLTs, nothing else.
        hlt_slack = (
            metrics.exits_for_reason("hlt")
            - metrics.l0_handled.get("hlt", 0)
            - sum(n for (_l, r, _o), n in metrics.forwards.items() if r == "hlt")
        )
        if slack != hlt_slack:
            violations.append(
                f"exit conservation: non-hlt imbalance "
                f"(total slack {slack}, hlt slack {hlt_slack})"
            )

    # Per-chain exit conservation: the same balance must hold within
    # every individual exit chain, not just machine-wide — an exit
    # mis-attributed between chains cancels in the aggregate but not here.
    tracker = machine.chain_tracker
    if tracker is not None:
        violations.extend(tracker.violations())
        total_chain_slack = sum(
            tracker.chain_slack(cid) for cid in tracker.exits
        )
        if total_chain_slack != slack:
            violations.append(
                f"chain conservation: per-chain slack {total_chain_slack} "
                f"!= machine-wide slack {slack}"
            )

    # No lost wakeup: a halted pCPU must not be parking a vCPU with
    # pending interrupts.
    for vm in stack.vms:
        for vcpu in vm.vcpus:
            pcpu = getattr(vcpu, "pcpu", None)
            if pcpu is not None and pcpu.halted and vcpu.lapic.irr:
                violations.append(
                    f"lost wakeup: pcpu{pcpu.idx} halted while "
                    f"{vcpu.name if hasattr(vcpu, 'name') else vcpu} has "
                    f"pending irr {sorted(vcpu.lapic.irr)}"
                )

    # Resource lifecycle: nothing may leak a migration-held resource —
    # no dirty log left attached to any VM's memory, no backend left
    # paused or still dirty-logging.  Campaigns fail on the leaked-state
    # bug class even when no invariant above notices the corruption.
    violations.extend(lifecycle_violations(stack))

    # Cycle conservation: charges non-negative, and the total bounded by
    # wall-cycles across all CPUs.  Boot-time work ("setup": IOMMU
    # page-pinning at device assignment) is charged while the stack is
    # *built* — before the clock ever runs — so it lies outside the
    # wall-cycle budget; a short run over a big passthrough domain would
    # otherwise flag a false violation.
    for category, cycles in metrics.cycles.items():
        if cycles < 0:
            violations.append(f"negative cycle charge: {category}={cycles}")
    wall_budget = machine.sim.now * len(machine.cpus)
    charged = sum(metrics.cycles.values()) - metrics.cycles.get("setup", 0)
    if machine.sim.now > 0 and charged > wall_budget:
        violations.append(
            f"cycle conservation: {charged} charged > "
            f"{wall_budget} wall-cycle budget"
        )

    return violations


def lifecycle_violations(stack) -> List[str]:
    """Resource-lifecycle audit over one stack: after any quiesced run,
    no VM may still have a dirty log attached, and no backend may be
    left paused or still dirty-logging.  All three are migration-held
    resources; finding one outside a live migration means an abort path
    leaked it."""
    out: List[str] = []
    for vm in getattr(stack, "vms", []):
        logs = vm.memory.dirty_logs
        if logs:
            names = ", ".join(sorted(log.name for log in logs))
            out.append(
                f"lifecycle: {vm.name}: {len(logs)} dirty log(s) still "
                f"attached ({names})"
            )
    for hv in getattr(stack, "hvs", []):
        for device, backend in getattr(hv, "backends", {}).items():
            if getattr(backend, "paused", False):
                out.append(
                    f"lifecycle: backend for {device.name} left paused"
                )
            if getattr(backend, "dirty_log", None) is not None:
                out.append(
                    f"lifecycle: {device.name} DMA dirty logging still enabled"
                )
    return out


def fabric_conservation_violations(fabric) -> List[str]:
    """Byte/frame conservation over one cluster fabric.

    * frames: every transmitted frame is received or counted
      undeliverable (``tx == rx + undeliverable`` once the clock has
      drained; ``tx >= rx + undeliverable`` while frames are in flight);
    * wire bytes: every frame serializes once on the source uplink
      ("out") and once on the destination downlink ("in"), so the two
      totals match when drained;
    * metering: the ``cross_host`` table counts delivered payload bytes,
      which can never exceed what the downlinks carried — and matches
      exactly when nothing was undeliverable and no ``fabric_degrade``
      window inflated on-wire bytes.
    """
    out: List[str] = []
    ports = list(fabric.ports.values())
    tx = sum(p.frames["tx"] for p in ports)
    rx = sum(p.frames["rx"] for p in ports)
    undeliverable = fabric.undeliverable
    drained = fabric.sim.pending_events == 0
    if drained:
        if tx != rx + undeliverable:
            out.append(
                f"fabric frames: {tx} tx != {rx} rx + "
                f"{undeliverable} undeliverable"
            )
    elif tx < rx + undeliverable:
        out.append(
            f"fabric frames: {tx} tx < {rx} rx + "
            f"{undeliverable} undeliverable (counters ran backwards)"
        )
    out_bytes = sum(p.wire.bytes_carried["out"] for p in ports)
    in_bytes = sum(p.wire.bytes_carried["in"] for p in ports)
    if drained and out_bytes != in_bytes:
        out.append(
            f"fabric bytes: uplinks carried {out_bytes} != "
            f"downlinks carried {in_bytes}"
        )
    metered = fabric.metrics.cross_host_bytes()
    if metered > in_bytes:
        out.append(
            f"fabric metering: cross_host table claims {metered} bytes "
            f"but downlinks carried only {in_bytes}"
        )
    faults = fabric.metrics.faults
    lossless = (
        drained
        and undeliverable == 0
        and faults.get(FaultClass.FABRIC_DEGRADE, 0) == 0
        and all(faults.get(kind, 0) == 0 for kind in _FABRIC_LOSSY)
    )
    if lossless and metered != in_bytes:
        out.append(
            f"fabric metering: clean fabric, but cross_host {metered} "
            f"bytes != {in_bytes} bytes carried"
        )
    return out


def span_reconciliation_violations(collector, metrics) -> List[str]:
    """Cycle conservation per exit chain: span-attributed cycles must
    never exceed the flat Metrics charge for the same category (spans
    subdivide the Metrics totals; handler work outside any dispatch
    frame legitimately leaves a non-negative remainder), and every
    opened span must close by the time the clock drains.

    Fast-forward macro-events are accepted attribution: a skipped epoch
    charges Metrics without opening spans (span tracing vetoes skipping
    *while attached*, but epochs skipped before attach or after detach
    are legitimate), so the remainder check stays one-sided — only
    spans exceeding Metrics is a violation."""
    out: List[str] = []
    for category, span_cy, metric_cy, rest in collector.reconcile(metrics):
        if rest < -_CYCLE_EPS * max(1.0, metric_cy):
            out.append(
                f"span reconcile: {category}: spans attribute "
                f"{span_cy:,.0f} cycles > Metrics charge {metric_cy:,.0f}"
            )
    if collector.sim.pending_events == 0:
        open_spans = collector.spans_opened - collector.spans_closed
        if open_spans:
            out.append(
                f"span reconcile: {open_spans} span(s) still open after "
                f"the clock drained"
            )
    return out


def orphaned_process_violations(processes) -> List[str]:
    """No simulation process belonging to a finished unit of work may
    remain runnable: it would keep consuming the shared clock on every
    later ``sim.run``.  A process is *retired* if it completed, was
    cancelled, or its generator frame is gone (it raised — the engine
    never reschedules it)."""
    out: List[str] = []
    for proc in processes:
        retired = (
            proc.done
            or proc.cancelled
            or getattr(proc.gen, "gi_frame", None) is None
        )
        if not retired:
            out.append(f"process {proc.name!r} still runnable after its "
                       f"work unit ended")
    return out
