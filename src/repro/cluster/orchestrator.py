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


class FabricChannel:
    """One migration's transport between two hosts on a fabric."""

    def __init__(
        self,
        fabric: Fabric,
        src: str,
        dst: str,
        max_retries: int = 6,
        retry_backoff_cycles: int = 400_000,
        chunk_bytes: int = CHUNK_BYTES,
    ) -> None:
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.max_retries = max_retries
        self.retry_backoff_cycles = retry_backoff_cycles
        self.chunk_bytes = chunk_bytes
        #: Chunk sends repeated after fabric faults (LiveMigration folds
        #: this into its MigrationResult.retries).
        self.retries = 0

    def transfer_cycles(self, nbytes: int) -> int:
        """Uncontended end-to-end estimate (used for the downtime-limit
        projection): full chunks plus the remainder, at the current
        degraded bandwidth."""
        factor = self.fabric.bandwidth_factor()
        effective = nbytes if factor >= 1.0 else int(nbytes / factor)
        full, rest = divmod(effective, self.chunk_bytes)
        cycles = full * self.fabric.frame_cycles(self.chunk_bytes, self.src, self.dst)
        if rest:
            cycles += self.fabric.frame_cycles(rest, self.src, self.dst)
        return max(1, cycles)

    def transfer(self, nbytes: int) -> Generator:
        """Move ``nbytes`` src -> dst, chunk by chunk.  A chunk that hits
        a partition/host-loss window is retried with exponential backoff;
        exhausting the budget raises :class:`MigrationError`."""
        sent = 0
        while sent < nbytes:
            chunk = min(self.chunk_bytes, nbytes - sent)
            attempt = 0
            backoff = self.retry_backoff_cycles
            while True:
                try:
                    yield from self.fabric.transfer(
                        self.src, self.dst, chunk, kind="migration"
                    )
                    break
                except UndeliverableError as exc:
                    attempt += 1
                    self.retries += 1
                    if attempt > self.max_retries:
                        raise MigrationError(
                            f"fabric {self.src} -> {self.dst} unusable "
                            f"after {self.max_retries} retries: {exc}"
                        )
                    yield backoff
                    backoff = min(backoff * 2, 16 * self.retry_backoff_cycles)
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


class Orchestrator:
    """Places and moves tenants across the cluster's hosts."""

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
        max_attempts: int = 3,
        attempt_backoff_cycles: int = 2_000_000,
    ) -> MigrationRecord:
        """Live-migrate ``tenant_name`` to ``dst_host``.

        Runs the whole pre-copy on the shared cluster clock with the
        tenant's dirtying workload racing it.  A migration killed by a
        fabric partition is re-attempted (fresh pre-copy) after backoff,
        up to ``max_attempts``; :class:`MigrationNotSupported`
        (hardware-coupled tenant) is terminal immediately.
        """
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

        attempts = 0
        #: Chunk/wire retries from *failed* attempts: each attempt gets a
        #: fresh channel, so without carrying the running total here the
        #: final MigrationResult.retries would silently drop them.
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
            try:
                result = self._drive(migration, tenant)
            except MigrationNotSupported as exc:
                record = MigrationRecord(
                    tenant=tenant_name,
                    src=src.name,
                    dst=dst.name,
                    outcome="unsupported",
                    attempts=attempts,
                    error=str(exc),
                )
                self.records.append(record)
                cluster.log(f"migrate {tenant_name} unsupported: {exc}")
                raise
            except MigrationError as exc:
                carried_retries += channel.retries + migration.retries
                cluster.fabric.metrics.record_fault("migration_attempt")
                if attempts >= max_attempts:
                    record = MigrationRecord(
                        tenant=tenant_name,
                        src=src.name,
                        dst=dst.name,
                        outcome="failed",
                        attempts=attempts,
                        error=str(exc),
                    )
                    self.records.append(record)
                    cluster.log(
                        f"migrate {tenant_name} failed after "
                        f"{attempts} attempts: {exc}"
                    )
                    raise
                cluster.log(
                    f"migrate {tenant_name} attempt {attempts} failed "
                    f"({exc}); backing off"
                )
                cluster.sim.run(until=cluster.sim.now + attempt_backoff_cycles)
                continue
            break

        result.retries += carried_retries
        src.evict(tenant_name)
        adopted = dst.adopt(tenant)
        record = MigrationRecord(
            tenant=tenant_name,
            src=src.name,
            dst=dst.name,
            outcome="ok",
            attempts=attempts,
            result=result,
        )
        self.records.append(record)
        cluster.log(
            f"migrate {tenant_name} ok downtime_ms="
            f"{result.downtime_s * 1e3:.3f} rounds={result.rounds} "
            f"bytes={result.bytes_transferred} retries={result.retries} "
            f"attempts={attempts}"
        )
        return record

    def _drive(self, migration: LiveMigration, tenant) -> MigrationResult:
        """Run one migration attempt to completion on the shared clock,
        with the tenant's workload dirtying pages underneath it."""
        sim = self.cluster.sim
        proc = sim.spawn(migration.run(), name=f"migrate:{tenant.name}")
        dirtier = sim.spawn(
            self._dirtier(tenant, proc), name=f"dirtier:{tenant.name}"
        )
        try:
            sim.run()
        finally:
            # An aborted migration leaves the dirtier mid-loop; cancel it
            # or it spins forever on every later run of the shared clock.
            dirtier.cancel()
            audit = getattr(self.cluster, "audit", None)
            if audit is not None:
                audit.on_attempt_end(tenant.name, (proc, dirtier))
        if not proc.done:
            raise MigrationError(
                f"{tenant.name}: migration never completed (deadlock)"
            )
        return proc.result

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
    # Destination selection
    # ------------------------------------------------------------------
    def pick_destination(self, spec, exclude=()) -> "object":
        """Choose a destination host for ``spec`` through the cluster's
        placement policy with ``exclude``-named hosts removed from the
        candidate set (the evacuating host, cordoned or rebooting hosts).

        The policy itself filters hosts that no longer fit — a host that
        became infeasible mid-wave simply drops out of the ranking
        rather than being re-ranked and rejected one tenant at a time.
        Raises :class:`~repro.cluster.placement.PlacementError` when no
        candidate fits."""
        excluded = set(exclude)
        candidates = [h for h in self.cluster.hosts if h.name not in excluded]
        return self.cluster.policy.choose(candidates, spec)

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
        cluster = self.cluster
        src = cluster.host(host_name)
        records: List[MigrationRecord] = []
        for name in sorted(src.tenants):
            tenant = src.tenants[name]
            try:
                dst = self.pick_destination(
                    tenant.spec, exclude={host_name, *exclude}
                )
            except PlacementError as exc:
                cluster.log(f"evacuate {name}: no destination ({exc})")
                continue
            try:
                records.append(
                    self.migrate(
                        name, dst.name, downtime_limit_s=downtime_limit_s
                    )
                )
            except MigrationNotSupported:
                records.append(self.records[-1])
            except MigrationError:
                records.append(self.records[-1])
        return records

    # ------------------------------------------------------------------
    # In-simulation (generator) paths — for control-plane processes
    # ------------------------------------------------------------------
    def migrate_async(
        self,
        tenant_name: str,
        dst_host: str,
        downtime_limit_s: Optional[float] = 0.5,
        downtime_target_s: float = 0.03,
        max_attempts: int = 3,
        attempt_backoff_cycles: int = 2_000_000,
    ) -> Generator:
        """Generator twin of :meth:`migrate` for callers that are
        *themselves* processes on the shared clock (``record = yield
        from orch.migrate_async(...)``): a control plane cannot call the
        blocking path, which re-enters ``sim.run()``.

        Unlike the blocking path it never raises into the simulation:
        "unsupported" and "failed" outcomes are returned as records so
        one stuck tenant cannot crash the whole fleet run.  Destination
        capacity is reserved up front — concurrent evacuations in the
        same upgrade wave cannot race two pre-copies into the same free
        bytes and then fail at adopt time.
        """
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
                status, payload = yield from self._drive_async(migration, tenant)
                if status == "unsupported":
                    record = MigrationRecord(
                        tenant=tenant_name,
                        src=src.name,
                        dst=dst.name,
                        outcome="unsupported",
                        attempts=attempts,
                        error=str(payload),
                    )
                    self.records.append(record)
                    cluster.log(f"migrate {tenant_name} unsupported: {payload}")
                    return record
                if status == "error":
                    carried_retries += channel.retries + migration.retries
                    cluster.fabric.metrics.record_fault("migration_attempt")
                    if attempts >= max_attempts:
                        record = MigrationRecord(
                            tenant=tenant_name,
                            src=src.name,
                            dst=dst.name,
                            outcome="failed",
                            attempts=attempts,
                            error=str(payload),
                        )
                        self.records.append(record)
                        cluster.log(
                            f"migrate {tenant_name} failed after "
                            f"{attempts} attempts: {payload}"
                        )
                        return record
                    cluster.log(
                        f"migrate {tenant_name} attempt {attempts} failed "
                        f"({payload}); backing off"
                    )
                    yield attempt_backoff_cycles
                    continue
                result = payload
                break
        finally:
            # Released before adopt below — release + adopt run in the
            # same resume with no yield between them, so the freed
            # reservation cannot be claimed by a concurrent process.
            dst.release(tenant_name)

        result.retries += carried_retries
        src.evict(tenant_name)
        dst.adopt(tenant)
        record = MigrationRecord(
            tenant=tenant_name,
            src=src.name,
            dst=dst.name,
            outcome="ok",
            attempts=attempts,
            result=result,
        )
        self.records.append(record)
        cluster.log(
            f"migrate {tenant_name} ok downtime_ms="
            f"{result.downtime_s * 1e3:.3f} rounds={result.rounds} "
            f"bytes={result.bytes_transferred} retries={result.retries} "
            f"attempts={attempts}"
        )
        return record

    def _drive_async(self, migration: LiveMigration, tenant) -> Generator:
        """Run one attempt from inside the simulation: spawn the
        migration and the tenant's dirtier, join the migration, report
        ``("ok", result) | ("unsupported", exc) | ("error", exc)``.
        Exceptions are folded into the return value — a raise would
        propagate out of the *caller's* process and tear down the run.
        """
        sim = self.cluster.sim

        def guarded() -> Generator:
            try:
                result = yield from migration.run()
            except MigrationNotSupported as exc:
                return ("unsupported", exc)
            except MigrationError as exc:
                return ("error", exc)
            return ("ok", result)

        proc = sim.spawn(guarded(), name=f"migrate:{tenant.name}")
        dirtier = sim.spawn(
            self._dirtier(tenant, proc), name=f"dirtier:{tenant.name}"
        )
        try:
            yield proc
        finally:
            dirtier.cancel()
            audit = getattr(self.cluster, "audit", None)
            if audit is not None:
                audit.on_attempt_end(tenant.name, (proc, dirtier))
        return proc.result

    def evacuate_async(
        self,
        host_name: str,
        downtime_limit_s: Optional[float] = 0.5,
        exclude=(),
    ) -> Generator:
        """Generator twin of :meth:`evacuate` (``records = yield from
        orch.evacuate_async(...)``), for upgrade waves driven by an
        in-simulation control plane.  Destinations are re-picked per
        tenant through the placement policy with the source host and
        ``exclude`` removed; hosts that filled up mid-wave drop out of
        the candidate ranking automatically."""
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
            record = yield from self.migrate_async(
                name, dst.name, downtime_limit_s=downtime_limit_s
            )
            records.append(record)
        return records
