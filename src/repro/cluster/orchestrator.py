"""Cross-host live migration over the datacenter fabric.

:class:`FabricChannel` adapts the fabric to the transport duck-type
:class:`~repro.core.migration.LiveMigration` accepts (``transfer`` /
``transfer_cycles`` / ``retries``): pre-copy bytes are chunked into
fabric frames that serialize on the real source uplink and destination
downlink, so dirty-page traffic consumes fabric bandwidth other flows
see — and is metered in the cluster ``cross_host`` table.

:class:`Orchestrator` drives whole migrations: it spawns the tenant's
dirtying workload next to the pre-copy process, enforces the downtime
limit, retries a migration that dies to a fabric partition with
exponential backoff, and re-homes the tenant's bookkeeping on success.

The DVH asymmetry (§3.6) needs no code here: a virtual-passthrough
tenant's device state travels through the PCI migration capability,
while a physical-passthrough tenant's VM is ``hardware_coupled`` and
:class:`~repro.core.migration.LiveMigration` refuses it with
:class:`~repro.hv.passthrough.MigrationNotSupported` before a single
byte moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.cluster.fabric import Fabric, UndeliverableError
from repro.cluster.placement import PlacementError
from repro.core.migration import (
    LiveMigration,
    MigrationError,
    MigrationNotSupported,
    MigrationResult,
)

__all__ = ["FabricChannel", "Orchestrator", "MigrationRecord"]

#: Pre-copy traffic is moved in chunks of this size: large enough to
#: amortize per-frame switch latency, small enough that a partition is
#: noticed mid-stream rather than after gigabytes.
CHUNK_BYTES = 256 * 1024

#: A chunk that hits a partition or host-loss window is resent up to
#: this many times, the first after :data:`CHUNK_BACKOFF_CYCLES` and each
#: later one after twice the last wait (capped at 16x).
CHUNK_RETRIES = 6
CHUNK_BACKOFF_CYCLES = 400_000

#: A migration killed by a fabric partition is attempted this many times
#: in all, each retry after :data:`ATTEMPT_BACKOFF_CYCLES` of backoff.
MAX_ATTEMPTS = 3
ATTEMPT_BACKOFF_CYCLES = 2_000_000


class FabricChannel:
    """One migration's transport between two hosts on a fabric."""

    def __init__(self, fabric: Fabric, src: str, dst: str) -> None:
        self.fabric = fabric
        self.src = src
        self.dst = dst
        #: Chunk sends repeated after fabric faults (LiveMigration folds
        #: this into its MigrationResult.retries).
        self.retries = 0

    def transfer_cycles(self, nbytes: int) -> int:
        """Uncontended end-to-end estimate (used for the downtime-limit
        projection): full chunks plus the remainder, at the current
        degraded bandwidth."""
        factor = self.fabric.bandwidth_factor()
        effective = nbytes if factor >= 1.0 else int(nbytes / factor)
        full, rest = divmod(effective, CHUNK_BYTES)
        cycles = full * self.fabric.frame_cycles(CHUNK_BYTES, self.src, self.dst)
        if rest:
            cycles += self.fabric.frame_cycles(rest, self.src, self.dst)
        return max(1, cycles)

    def transfer(self, nbytes: int) -> Generator:
        """Move ``nbytes`` src -> dst, chunk by chunk.  A chunk that hits
        a partition/host-loss window is retried with exponential backoff;
        exhausting the budget raises :class:`MigrationError`."""
        sent = 0
        while sent < nbytes:
            chunk = min(CHUNK_BYTES, nbytes - sent)
            attempt = 0
            backoff = CHUNK_BACKOFF_CYCLES
            while True:
                try:
                    yield from self.fabric.transfer(
                        self.src, self.dst, chunk, kind="migration"
                    )
                    break
                except UndeliverableError as exc:
                    attempt += 1
                    self.retries += 1
                    if attempt > CHUNK_RETRIES:
                        raise MigrationError(
                            f"fabric {self.src} -> {self.dst} unusable "
                            f"after {CHUNK_RETRIES} retries: {exc}"
                        )
                    yield backoff
                    backoff = min(backoff * 2, 16 * CHUNK_BACKOFF_CYCLES)
            if attempt:
                self.fabric.metrics.record_recovery("fabric_retry", attempt)
            sent += chunk


@dataclass
class MigrationRecord:
    """One orchestrated migration, as the cluster log remembers it."""

    tenant: str
    src: str
    dst: str
    outcome: str  # "ok", "unsupported", or "failed"
    attempts: int
    result: Optional[MigrationResult] = None
    error: str = ""


def _run_blocking(gen: Generator):
    """Run a generator that must never yield and return its value: a
    blocking path drives the clock itself, so a yielded delay is a bug."""
    try:
        step = next(gen)
    except StopIteration as stop:
        return stop.value
    gen.close()
    raise RuntimeError(f"blocking migration yielded {step!r}")


class Orchestrator:
    """Places and moves tenants across the fleet's hosts.  One attempt
    loop (:meth:`_migrate`) serves the blocking methods, which run the
    clock themselves, and the ``_async`` generators, for callers that
    are processes on the shared clock (``record = yield from
    orch.migrate_async(...)``) and so cannot re-enter ``sim.run()``."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.records: List[MigrationRecord] = []

    # ------------------------------------------------------------------
    def migrate(
        self,
        tenant_name: str,
        dst_host: str,
        downtime_limit_s: Optional[float] = 0.5,
        downtime_target_s: float = 0.03,
    ) -> MigrationRecord:
        """Live-migrate ``tenant_name`` to ``dst_host``.

        Runs the whole pre-copy on the shared cluster clock with the
        tenant's dirtying workload racing it.  A migration killed by a
        fabric partition is re-attempted (fresh pre-copy) after backoff,
        :data:`MAX_ATTEMPTS` times in all;
        :class:`MigrationNotSupported` (hardware-coupled tenant) is
        terminal immediately.  Either
        terminal failure is recorded, then the attempt's own exception
        is raised.
        """
        record, error = _run_blocking(
            self._migrate(
                True, tenant_name, dst_host, downtime_limit_s, downtime_target_s
            )
        )
        if error is not None:
            raise error
        return record

    def migrate_async(
        self,
        tenant_name: str,
        dst_host: str,
        downtime_limit_s: Optional[float] = 0.5,
        downtime_target_s: float = 0.03,
    ) -> Generator:
        """:meth:`migrate` from inside the simulation.  It returns
        "unsupported" and "failed" records instead of raising, so one
        stuck tenant cannot crash the whole fleet run."""
        record, _ = yield from self._migrate(
            False, tenant_name, dst_host, downtime_limit_s, downtime_target_s
        )
        return record

    def _migrate(
        self, blocking: bool, tenant_name: str, dst_host: str,
        downtime_limit_s, downtime_target_s=0.03,
    ) -> Generator:
        """The attempt loop; returns ``(record, error)``, ``error`` being
        the terminal attempt's exception (None on "ok").  Only running an
        attempt and waiting out the backoff depend on ``blocking``.
        Destination capacity is reserved up front, so concurrent
        evacuations cannot race two pre-copies into the same free bytes
        and then fail at adopt time."""
        cluster = self.cluster
        src = cluster.host_of(tenant_name)
        dst = cluster.host(dst_host)
        if src.name == dst.name:
            raise ValueError(f"{tenant_name} is already on {dst.name}")
        tenant = src.tenants[tenant_name]
        cluster.log(
            f"migrate {tenant_name} {src.name}->{dst.name} "
            f"io={tenant.spec.io_model}"
        )
        dst.reserve(tenant.spec)
        try:
            attempts = 0
            #: Chunk/wire retries of *failed* attempts, each of which had
            #: its own channel: carried into the final result's retries.
            carried_retries = 0
            while True:
                attempts += 1
                channel = FabricChannel(cluster.fabric, src.name, dst.name)
                migration = LiveMigration(
                    src.machine,
                    tenant.vm,
                    devices=tenant.devices,
                    channel=channel,
                    downtime_target_s=downtime_target_s,
                    downtime_limit_s=downtime_limit_s,
                )
                if blocking:
                    status, payload = self._drive(migration, tenant)
                else:
                    status, payload = yield from self._drive_async(migration, tenant)
                if status != "error":
                    break
                carried_retries += channel.retries + migration.retries
                cluster.fabric.metrics.record_fault("migration_attempt")
                if attempts >= MAX_ATTEMPTS:
                    status = "failed"
                    break
                cluster.log(
                    f"migrate {tenant_name} attempt {attempts} failed "
                    f"({payload}); backing off"
                )
                if blocking:
                    cluster.sim.run(until=cluster.sim.now + ATTEMPT_BACKOFF_CYCLES)
                else:
                    yield ATTEMPT_BACKOFF_CYCLES
        finally:
            # Released before adopt below — release + adopt run in the
            # same resume with no yield between them, so the freed
            # reservation cannot be claimed by a concurrent process.
            dst.release(tenant_name)

        record = MigrationRecord(tenant_name, src.name, dst.name, status, attempts)
        if status == "ok":
            result = record.result = payload
            result.retries += carried_retries
            src.evict(tenant_name)
            dst.adopt(tenant)
            error = None
            message = (
                f"ok downtime_ms={result.downtime_s * 1e3:.3f} "
                f"rounds={result.rounds} bytes={result.bytes_transferred} "
                f"retries={result.retries} attempts={attempts}"
            )
        else:
            error = payload
            record.error = str(error)
            message = (
                f"unsupported: {error}"
                if status == "unsupported"
                else f"failed after {attempts} attempts: {error}"
            )
        self.records.append(record)
        cluster.log(f"migrate {tenant_name} {message}")
        return record, error

    def _drive(self, migration: LiveMigration, tenant):
        """Run one attempt to completion on the shared clock, with the
        tenant's workload dirtying pages underneath it; report
        ``("ok", result) | ("unsupported", exc) | ("error", exc)``.
        The migration runs unguarded, so a failing attempt raises out of
        ``sim.run()`` and stops the clock where it failed."""
        proc, dirtier = self._spawn_attempt(migration.run(), tenant)
        try:
            self.cluster.sim.run()
        except MigrationNotSupported as exc:
            return ("unsupported", exc)
        except MigrationError as exc:
            return ("error", exc)
        finally:
            self._end_attempt(tenant, proc, dirtier)
        if not proc.done:
            return ("error", MigrationError(
                f"{tenant.name}: migration never completed (deadlock)"
            ))
        return ("ok", proc.result)

    def _drive_async(self, migration: LiveMigration, tenant) -> Generator:
        """:meth:`_drive` from inside the simulation: join the migration
        process.  Exceptions are folded into its return value — a raise
        would propagate out of the *caller's* process and tear down the
        run."""

        def guarded() -> Generator:
            try:
                result = yield from migration.run()
            except MigrationNotSupported as exc:
                return ("unsupported", exc)
            except MigrationError as exc:
                return ("error", exc)
            return ("ok", result)

        proc, dirtier = self._spawn_attempt(guarded(), tenant)
        try:
            yield proc
        finally:
            self._end_attempt(tenant, proc, dirtier)
        return proc.result

    def _spawn_attempt(self, run: Generator, tenant):
        sim = self.cluster.sim
        proc = sim.spawn(run, name=f"migrate:{tenant.name}")
        return proc, sim.spawn(
            self._dirtier(tenant, proc), name=f"dirtier:{tenant.name}"
        )

    def _end_attempt(self, tenant, proc, dirtier) -> None:
        # An aborted migration leaves the dirtier mid-loop; cancel it
        # or it spins forever on every later run of the shared clock.
        dirtier.cancel()
        if self.cluster.audit is not None:
            self.cluster.audit.on_attempt_end(tenant.name, (proc, dirtier))

    def _dirtier(self, tenant, migration_proc) -> Generator:
        """The tenant's workload during migration: re-dirty a window of
        pages at a steady cadence until the pre-copy finishes.  Bounded
        by the migration process, so the simulation always drains."""
        round_idx = 0
        while not migration_proc.done:
            yield 400_000
            if migration_proc.done:
                return
            tenant.dirty_some_pages(round_idx)
            round_idx += 1

    # ------------------------------------------------------------------
    # Destination selection and host drains
    # ------------------------------------------------------------------
    def pick_destination(self, spec, exclude=()) -> "object":
        """Choose a destination host for ``spec`` from the fleet's
        placement index, never one named in ``exclude`` (the evacuating
        host, cordoned or rebooting hosts).

        Hosts that no longer fit are skipped, so a host that became
        infeasible mid-wave simply drops out of the ranking.  Raises
        :class:`~repro.cluster.placement.PlacementError` when no
        candidate fits."""
        return self.cluster.placement.choose(spec, exclude)

    def evacuate(
        self,
        host_name: str,
        downtime_limit_s: Optional[float] = 0.5,
        exclude=(),
    ) -> List[MigrationRecord]:
        """Drain a host for maintenance: migrate every tenant somewhere
        else by the cluster's placement policy, with the evacuating host
        (and any ``exclude``-named hosts) never considered as a
        destination.  Hardware-coupled tenants cannot move — they are
        recorded and left behind (the operator's problem, exactly as in
        a real fleet)."""
        return _run_blocking(
            self._evacuate(True, host_name, downtime_limit_s, exclude)
        )

    def evacuate_async(
        self,
        host_name: str,
        downtime_limit_s: Optional[float] = 0.5,
        exclude=(),
    ) -> Generator:
        """:meth:`evacuate` from inside the simulation (``records =
        yield from orch.evacuate_async(...)``), for upgrade waves driven
        by a control plane."""
        return (
            yield from self._evacuate(False, host_name, downtime_limit_s, exclude)
        )

    def _evacuate(
        self, blocking: bool, host_name: str, downtime_limit_s, exclude
    ) -> Generator:
        """Destinations are re-picked per tenant, so hosts that filled
        up mid-wave drop out of the candidate ranking automatically."""
        cluster = self.cluster
        src = cluster.host(host_name)
        records: List[MigrationRecord] = []
        for name in sorted(src.tenants):
            if name not in src.tenants:
                # Moved away (e.g. by a rebalancer) while an earlier
                # tenant of this wave was mid-flight: nothing to do.
                continue
            tenant = src.tenants[name]
            try:
                dst = self.pick_destination(
                    tenant.spec, exclude={host_name, *exclude}
                )
            except PlacementError as exc:
                cluster.log(f"evacuate {name}: no destination ({exc})")
                continue
            record, _ = yield from self._migrate(
                blocking, name, dst.name, downtime_limit_s
            )
            records.append(record)
        return records
