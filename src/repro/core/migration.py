"""DVH migration (§3.6): live migration of VMs and nested VMs.

Because DVH virtual hardware is software, the host hypervisor can fully
encapsulate a VM's state — including a nested VM using
virtual-passthrough — and migrate it.  Physical device passthrough, by
contrast, couples the VM to hardware and blocks migration entirely (the
key trade-off the paper's introduction describes).

Two migration scopes:

* **L1 VM** (with everything inside it, nested VMs included): from the
  host hypervisor's perspective this is ordinary live migration — DVH
  adds only a little extra virtual-hardware state (virtual timer value,
  VCIMT address) to save and restore.
* **Nested VM alone**: the guest hypervisor migrates its VM.  With
  virtual-passthrough it cannot see the device state or the pages the
  device DMAs into, so the paper defines a new **PCI migration
  capability**: control registers through which the guest hypervisor
  asks the host to capture device state to a given location and to log
  DMA-dirtied pages — standard PCI capability plumbing, so any guest
  hypervisor can interoperate with any host hypervisor.

The pre-copy algorithm is the standard one the paper relies on: copy all
pages, then iteratively re-copy dirtied pages until the remainder fits in
the downtime budget, then stop-and-copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Generator, List, Optional, Tuple

from repro.hw.mem import PAGE_SIZE, DirtyLog, PageRuns
from repro.hw.pci import Capability, CapabilityId, PciDevice
from repro.hw.vmx import VmcsField
from repro.hv.passthrough import MigrationNotSupported

__all__ = [
    "MigrationResult",
    "MigrationError",
    "LiveMigration",
    "add_migration_capability",
    "capture_device_state",
    "set_device_dirty_logging",
    "dirtier",
    "MigrationNotSupported",
]


class MigrationError(RuntimeError):
    """A migration failed: the wire stayed down past the retry budget,
    or dirty pages did not converge within the round budget while a hard
    downtime limit was set.  Distinct from
    :class:`MigrationNotSupported`, which means migration could never
    have been attempted."""

#: Memory-footprint divisor: the simulated transfer moves 1/512 of the
#: configured VM memory (so a 12 GB nested VM transfers 24 MB of
#: simulated state).  Migration *ratios* — the paper's reported result —
#: are preserved; absolute times scale with this constant.
FOOTPRINT_DIVISOR = 512
#: Fixed switch-over cost (final handshake, resume on destination).
SWITCHOVER_CYCLES = 2_000_000


# ----------------------------------------------------------------------
# The PCI migration capability (new in the paper)
# ----------------------------------------------------------------------
def add_migration_capability(device: PciDevice) -> Capability:
    """Attach the paper's migration capability to a (virtual) device.

    Registers: ``state_addr`` (where to capture device state),
    ``dirty_log_addr`` (where to log DMA-dirtied pages), and ``ctrl``
    (capture / log-enable commands).
    """
    cap = Capability(
        CapabilityId.MIGRATION,
        {"ctrl": 0, "state_addr": 0, "dirty_log_addr": 0},
    )
    device.add_capability(cap)
    return cap


def capture_device_state(device: PciDevice, backend) -> int:
    """Guest hypervisor asks the host (via the capability) to capture the
    virtual device's state; returns its size in bytes.  The state is the
    host's own encapsulation format — the guest hypervisor "simply
    transfers the device state to the destination and does not need to
    interpret it" (§3.6)."""
    cap = device.find_capability(CapabilityId.MIGRATION)
    if cap is None:
        raise MigrationNotSupported(
            f"{device.name} has no migration capability"
        )
    cap.registers["ctrl"] |= 0x1  # capture command
    # Ring indices, descriptor state, MSI config: a few KB.
    queues = len(getattr(device, "queues", [])) or 1
    return 2048 + 512 * queues


def set_device_dirty_logging(device: PciDevice, backend, log: Optional[DirtyLog]) -> None:
    """Enable/disable DMA dirty-page logging through the capability.
    The host implements it with the logging it already does as part of
    I/O interposition — no additional traps (§3.6)."""
    cap = device.find_capability(CapabilityId.MIGRATION)
    if cap is None:
        raise MigrationNotSupported(
            f"{device.name} has no migration capability"
        )
    cap.registers["ctrl"] = (cap.registers["ctrl"] | 0x2) if log else (
        cap.registers["ctrl"] & ~0x2
    )
    backend.dirty_log = log


def _drain(cpu_log: DirtyLog, device_logs: List[DirtyLog]) -> PageRuns:
    """Drain the CPU log and every device log into the union of their
    page runs."""
    drained = cpu_log.drain()
    for log in device_logs:
        drained |= log.drain()
    return drained


# ----------------------------------------------------------------------
# Live migration
# ----------------------------------------------------------------------
@dataclass
class MigrationResult:
    """Outcome of one live migration."""

    vm_name: str
    total_s: float
    downtime_s: float
    rounds: int
    bytes_transferred: int
    device_state_bytes: int
    dvh_state_saved: bool
    #: Transfer attempts repeated after a link flap (0 on a clean wire).
    retries: int = 0


class LiveMigration:
    """Live pre-copy migration of one VM between identical hosts.

    ``devices`` lists virtual devices whose state/dirty pages must come
    from the host through the migration capability (virtual-passthrough
    devices when migrating a nested VM alone).
    """

    def __init__(
        self,
        machine,
        vm,
        devices: Optional[List[PciDevice]] = None,
        bandwidth_bps: Optional[float] = None,
        downtime_target_s: float = 0.03,
        max_rounds: int = 30,
        downtime_limit_s: Optional[float] = None,
        max_retries: int = 5,
        retry_backoff_cycles: int = 200_000,
        channel=None,
    ) -> None:
        self.machine = machine
        self.vm = vm
        self.devices = devices or []
        #: Optional transport the pre-copy bytes actually travel over
        #: (duck-typed: ``transfer(nbytes) -> Generator`` plus a
        #: ``transfer_cycles(nbytes)`` estimator and a ``retries``
        #: counter).  The cluster fabric channel
        #: (:class:`repro.cluster.orchestrator.FabricChannel`) plugs in
        #: here so cross-host dirty-page traffic consumes real simulated
        #: link bandwidth; when None the flat ``bandwidth_bps`` wire is
        #: used, exactly as before.
        self.channel = channel
        self.bandwidth_bps = (
            bandwidth_bps if bandwidth_bps is not None else machine.costs.migration_bps
        )
        self.downtime_target_s = downtime_target_s
        self.max_rounds = max_rounds
        #: Hard downtime bound (opt-in): when set and pre-copy fails to
        #: converge within ``max_rounds``, raise :class:`MigrationError`
        #: instead of eating an unbounded stop-and-copy.
        self.downtime_limit_s = downtime_limit_s
        self.max_retries = max_retries
        self.retry_backoff_cycles = retry_backoff_cycles
        #: Transfer attempts repeated after link flaps (see faults).
        self.retries = 0

    # ------------------------------------------------------------------
    def _transfer_cycles(self, nbytes: int) -> int:
        if self.channel is not None:
            return self.channel.transfer_cycles(nbytes)
        sim = self.machine.sim
        return max(1, sim.cycles(nbytes * 8 / self.bandwidth_bps))

    def _transfer(self, nbytes: int) -> Generator:
        """Move ``nbytes`` over the migration wire.

        Consults the machine's attached fault injector (if any) for link
        flaps, packet loss and bandwidth degradation.  A down link is
        retried with bounded exponential backoff — each successful retry
        is a counted recovery; exhausting the budget raises
        :class:`MigrationError` (the round stays resumable: dirty state
        survives in the logs)."""
        if self.channel is not None:
            # The channel owns its transport faults (fabric partitions,
            # bandwidth collapse) and its own retry/backoff budget.
            yield from self.channel.transfer(nbytes)
            return
        faults = getattr(self.machine, "faults", None)
        if faults is None:
            yield self._transfer_cycles(nbytes)
            return
        attempt = 0
        backoff = self.retry_backoff_cycles
        while faults.migration_link_down():
            attempt += 1
            if attempt > self.max_retries:
                raise MigrationError(
                    f"{self.vm.name}: migration link down after "
                    f"{self.max_retries} retries"
                )
            yield backoff
            backoff = min(backoff * 2, 16 * self.retry_backoff_cycles)
        if attempt:
            self.retries += attempt
            self.machine.metrics.record_recovery("migration_retry", attempt)
        # Lost packets are retransmitted: more bytes on the wire.
        loss = max(0.0, faults.migration_loss_rate())
        effective = int(nbytes * (1.0 + loss))
        cycles = self._transfer_cycles(effective)
        # Degraded bandwidth stretches the same transfer.
        factor = max(0.05, faults.migration_bandwidth_factor())
        if factor != 1.0:
            cycles = max(1, int(cycles / factor))
        yield cycles

    def _footprint_pages(self) -> int:
        base = self.vm.memory.size_bytes // FOOTPRINT_DIVISOR // PAGE_SIZE
        return base + len(self.vm.memory.touched_pages)

    def _track_dirty(self, npages: int) -> Generator:
        """Charge the cycles dirty-page *tracking* cost for ``npages``
        freshly drained pages (see :mod:`repro.ooh.pricing`).

        Active only when the machine carries an OoH grant table and the
        migrating VM is nested (its dirty faults would otherwise be the
        guest hypervisor's to take): without a dirty grant each page is
        a forwarded write-protection fault chain; with ``dirty_logging``
        it is one L0 round trip; with ``dirty_ring`` only buffer
        flushes exit.  A machine without a grant table (``ooh is
        None``) charges nothing — byte-identical to the pre-OoH path.
        """
        if npages <= 0:
            return
        ooh = getattr(self.machine, "ooh", None)
        if ooh is None or getattr(self.vm, "level", 1) < 2:
            return
        from repro.ooh.pricing import dirty_tracking_cycles

        hv_stack = self.machine.hv_stack
        ghv = hv_stack[1] if len(hv_stack) > 1 else self.machine.host_hv
        mode = ooh.dirty_mode()
        cycles = dirty_tracking_cycles(
            self.machine.costs, ghv.profile, npages, mode
        )
        ooh.record(ooh.dirty_feature(), mode is not None, npages)
        self.machine.metrics.charge("dirty_tracking", cycles)
        yield cycles

    def _teardown(self, cpu_log: DirtyLog, backends) -> None:
        """Release every resource the migration holds: detach the CPU
        dirty log, disable device dirty logging, resume paused backends.

        Idempotent, and run from ``run``'s ``finally`` so it covers
        *every* exit path — success, non-convergence abort, a
        :class:`MigrationError` from the wire mid-flight, and process
        cancellation.  Before this ran unconditionally, a fabric
        partition during stop-and-copy left the tenant's virtio backends
        paused forever and each orchestrator retry stacked a fresh dirty
        log on top of the leaked one."""
        self.vm.memory.detach_dirty_log(cpu_log)
        for device, backend in backends:
            set_device_dirty_logging(device, backend, None)
            if backend.paused:
                backend.resume()

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        """The migration process (drive with ``sim.run_process`` or spawn
        alongside a running workload).  Returns a MigrationResult."""
        if getattr(self.vm, "hardware_coupled", False):
            raise MigrationNotSupported(
                f"{self.vm.name} uses physical device passthrough"
            )
        sim = self.machine.sim
        audit = getattr(self.machine, "audit", None)
        start = sim.now
        total_bytes = 0

        # Hook up dirty logging: CPU writes via the VM's memory space,
        # device DMA via the migration capability (virtual-passthrough)
        # or the manager's own interposition (regular virtio).
        cpu_log = DirtyLog(f"{self.vm.name}-cpu")
        self.vm.memory.attach_dirty_log(cpu_log)
        device_logs: List[DirtyLog] = []
        backends = []
        for device in self.devices:
            backend = self.machine.host_hv.backends.get(device)
            if backend is None:
                continue
            log = DirtyLog(f"{device.name}-dma")
            set_device_dirty_logging(device, backend, log)
            device_logs.append(log)
            backends.append((device, backend))
        if audit is not None:
            audit.on_migration_start(self.vm, cpu_log, device_logs, backends)

        # Fast-forward: drop any steady-state fingerprints (the dirty
        # logs just changed what an epoch observes) and veto workload
        # skipping for the duration — a skipped epoch would lose the
        # re-dirty records pre-copy rounds must drain.  The pre-copy
        # chunk stream itself exempts this veto (see FabricChannel).
        sim.ff.perturb("migration")
        self.machine.ff_migrations += 1

        outcome = "failed"
        try:
            result = yield from self._run_body(
                sim, audit, start, total_bytes, cpu_log, device_logs, backends
            )
            outcome = "ok"
            return result
        finally:
            self.machine.ff_migrations -= 1
            sim.ff.perturb("migration-end")
            self._teardown(cpu_log, backends)
            if audit is not None:
                audit.on_migration_end(
                    self.vm, outcome, cpu_log, device_logs, backends
                )

    def _run_body(
        self, sim, audit, start, total_bytes, cpu_log, device_logs, backends
    ) -> Generator:
        """Pre-copy rounds, stop-and-copy, switch-over.  Resource
        teardown lives in ``run``'s ``finally``, never here."""
        # DVH virtual-hardware state to save (§3.6): the virtual timer
        # value and the VCIMT address ride along with the VM state.
        dvh_state_saved = False
        for vcpu in self.vm.vcpus:
            if vcpu.vmcs.controls.virtual_timer_enable:
                vcpu.vmcs.write(
                    VmcsField.VIRTUAL_TIMER_DEADLINE, vcpu.lapic.timer_deadline
                )
                dvh_state_saved = True
            if vcpu.vmcs.read(VmcsField.VCIMTAR):
                dvh_state_saved = True

        # --- Round 0: full copy of the working footprint -------------
        pages = self._footprint_pages()
        nbytes = pages * PAGE_SIZE
        total_bytes += nbytes
        yield from self._transfer(nbytes)
        rounds = 1

        # --- Iterative pre-copy --------------------------------------
        # Pages drained for the convergence check but not re-copied yet
        # must carry into stop-and-copy, or they'd be silently lost.
        pending = PageRuns()
        converged = False
        while rounds < self.max_rounds:
            drained = _drain(cpu_log, device_logs)
            pending |= drained
            yield from self._track_dirty(len(drained))
            if audit is not None and drained:
                audit.on_pages_drained(self.vm, drained)
            nbytes = len(pending) * PAGE_SIZE
            # Judge convergence against the transport that will actually
            # carry the stop-and-copy: an attached channel (a possibly
            # degraded fabric path) rather than the flat wire rate.
            if sim.seconds(self._transfer_cycles(nbytes)) <= self.downtime_target_s:
                converged = True
                break
            total_bytes += nbytes
            rounds += 1
            if audit is not None and pending:
                audit.on_pages_copied(self.vm, pending)
            pending = PageRuns()
            yield from self._transfer(nbytes)

        # --- Stop and copy --------------------------------------------
        for _device, backend in backends:
            backend.pause()
        drained = _drain(cpu_log, device_logs)
        # Tracking cost of this batch accrued while the VM was still
        # running — charge it before the downtime clock starts.
        yield from self._track_dirty(len(drained))
        downtime_start = sim.now
        if audit is not None and drained:
            audit.on_pages_drained(self.vm, drained)
        dirty = pending | drained
        nbytes = len(dirty) * PAGE_SIZE
        device_state = 0
        for device, backend in backends:
            device_state += capture_device_state(device, backend)
        if self.downtime_limit_s is not None and not converged:
            projected_s = sim.seconds(
                self._transfer_cycles(nbytes + device_state) + SWITCHOVER_CYCLES
            )
            if projected_s > self.downtime_limit_s:
                # Abort: the source VM keeps running at full speed
                # (teardown in ``run``'s finally detaches the logs and
                # resumes the backends).
                raise MigrationError(
                    f"{self.vm.name}: dirty pages did not converge within "
                    f"{self.max_rounds} rounds (projected downtime "
                    f"{projected_s * 1e3:.1f} ms > limit "
                    f"{self.downtime_limit_s * 1e3:.1f} ms)"
                )
        total_bytes += nbytes + device_state
        yield from self._transfer(nbytes + device_state)
        yield SWITCHOVER_CYCLES
        downtime = sim.now - downtime_start
        if audit is not None and dirty:
            audit.on_pages_copied(self.vm, dirty)

        return MigrationResult(
            vm_name=self.vm.name,
            total_s=sim.seconds(sim.now - start),
            downtime_s=sim.seconds(downtime),
            rounds=rounds,
            bytes_transferred=total_bytes,
            device_state_bytes=device_state,
            dvh_state_saved=dvh_state_saved,
            retries=self.retries + (
                getattr(self.channel, "retries", 0) if self.channel else 0
            ),
        )


# ----------------------------------------------------------------------
# A tenant that keeps dirtying memory while it migrates
# ----------------------------------------------------------------------
def _window_ranges(
    base: int, pages: int, span: int, first: int, n: int
) -> List[Tuple[int, int]]:
    """The ``dirtier``'s windows of bursts ``first`` to ``first + n - 1``
    as ``(addr, size)`` byte ranges, merged and ascending.  A window
    that starts less than ``pages`` pages before the end of ``span``
    runs past it, as its per-burst write does; it does not wrap."""
    runs: List[List[int]] = []
    for start in sorted({(j * pages) % span for j in range(first, first + n)}):
        if runs and start <= runs[-1][1]:
            runs[-1][1] = start + pages
        else:
            runs.append([start, start + pages])
    return [(base + lo * PAGE_SIZE, (hi - lo) * PAGE_SIZE) for lo, hi in runs]


def dirtier(
    machine, ctx, proc, base: int, pages: int, span: int, compute: int
) -> Generator:
    """Process body: while the migration process ``proc`` runs, burst
    after burst compute ``compute`` cycles on ``ctx`` and then write a
    ``pages``-page window that slides over ``span`` pages from ``base``
    (burst ``i`` starts ``(i * pages) % span`` pages in), feeding the
    pre-copy dirty logs.

    Run-ahead: once every window has been written once, each burst is
    followed by the ``k`` further bursts whose write falls strictly
    before :meth:`Simulator.horizon`, applied in one step.  Their
    ``guest_work`` is charged once (``k * compute``), the union of their
    windows (at most one period of them) is written as merged,
    ascending byte ranges, and one delay of ``k * compute`` ends where
    the ``k``-th burst's write would.  Nothing else runs before the
    horizon, so no drain, ``proc.done`` check or cancellation can fall
    inside the batch, and integer charges commute.  The union reaches
    the same logs with the same pages as the per-burst writes, only in
    another order and fewer records; every reader of dirty or touched
    pages takes only membership, counts, unions and differences of page
    sets (ascending iteration included), so the order cannot change any
    output.

    It steps burst by burst while ``machine`` has an observer attached
    (:meth:`Machine.observer`), while ``ctx`` runs inside a live trap frame, or when
    ``compute`` or the ``guest_work`` total is not an ``int``
    (``docs/performance.md``, "Dirtier run-ahead").
    """
    sim = machine.sim
    metrics = machine.metrics
    size = pages * PAGE_SIZE
    period = span // gcd(pages, span)
    every_window = _window_ranges(base, pages, span, 0, period)
    i = 0
    while not proc.done:
        yield from ctx.compute(compute)
        ctx.mem_write(base + ((i * pages) % span) * PAGE_SIZE, size)
        i += 1
        if (
            i < period
            or proc.done
            or compute.__class__ is not int
            or metrics.cycles.get("guest_work", 0).__class__ is not int
            or machine.observer() is not None
            or ctx.exit_context is not None
        ):
            continue
        horizon = sim.horizon()
        if horizon is None:
            continue
        k = (horizon - 1 - sim.now) // compute
        if k <= 0:
            continue
        metrics.charge("guest_work", k * compute)
        ctx.mem_write_ranges(
            every_window if k >= period
            else _window_ranges(base, pages, span, i, k)
        )
        i += k
        yield k * compute
