"""The runtime invariant auditor.

One :class:`Auditor` watches any number of subjects — machines, stacks,
clusters — and accumulates :class:`AuditViolation` records from two
sources:

* **event hooks** fired by instrumented code (``LiveMigration`` start /
  drain / copy / end, orchestrator attempt end).  These run *during* the
  simulation but never touch simulated state, so an audited run computes
  the same bytes as an un-audited one;
* **finish checks** run over every attached subject by :meth:`finish`
  (lifecycle leaks, fabric conservation, span reconciliation).

Attachment follows the :class:`~repro.faults.FaultInjector` idiom: the
auditor installs itself as ``machine.audit`` (and ``cluster.audit``),
and instrumented sites consult it through ``getattr(..., None)`` — zero
cost when auditing is off.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.audit.checks import (
    fabric_conservation_violations,
    lifecycle_violations,
    orphaned_process_violations,
    span_reconciliation_violations,
)

__all__ = ["Auditor", "AuditReport", "AuditViolation"]


@dataclass(frozen=True)
class AuditViolation:
    """One failed invariant."""

    #: Which check tripped ("migration-lifecycle", "dirty-conservation",
    #: "fabric-conservation", "span-reconcile", "orphaned-process", ...).
    check: str
    #: What it tripped on (a VM, host, or subject name).
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.subject}: {self.message}"


@dataclass
class AuditReport:
    """Everything one audited run produced."""

    violations: List[AuditViolation] = field(default_factory=list)
    #: Event/check tallies ("migrations", "pages_drained", ...).
    observed: Counter = field(default_factory=Counter)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> Dict[str, object]:
        """The ``"audit"`` section of a JSON summary."""
        return {
            "ok": self.ok,
            "checks_run": self.checks_run,
            "violations": [str(v) for v in self.violations],
        }

    def render(self, verbose: bool = False) -> str:
        lines = [
            f"audit: {self.checks_run} checks, "
            f"{self.observed.get('migrations', 0)} migrations observed, "
            f"{len(self.violations)} violation(s)"
        ]
        if verbose and self.observed:
            for name, n in sorted(self.observed.items()):
                lines.append(f"  observed {name}: {n}")
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation}")
        if self.ok:
            lines.append("  all audited invariants green")
        return "\n".join(lines)


class _MigrationAudit:
    """Per-migration bookkeeping between start and end hooks."""

    __slots__ = ("vm", "cpu_log", "device_logs", "backends", "outstanding")

    def __init__(self, vm, cpu_log, device_logs, backends) -> None:
        self.vm = vm
        self.cpu_log = cpu_log
        self.device_logs = list(device_logs)
        self.backends = list(backends)
        #: Pages drained from a dirty log but not yet re-copied; on a
        #: successful migration this must be empty at the end — a page
        #: drained for the convergence check and then forgotten would be
        #: silently absent from the destination.
        self.outstanding: Set[int] = set()


class Auditor:
    """Registers and evaluates conservation/lifecycle invariants."""

    def __init__(self, name: str = "audit") -> None:
        self.name = name
        self.violations: List[AuditViolation] = []
        self.observed: Counter = Counter()
        self.checks_run = 0
        #: Open migrations, keyed by id(vm) (a VM may migrate repeatedly
        #: but never concurrently with itself).
        self._open: Dict[int, _MigrationAudit] = {}
        #: Subjects for finish-time checks: ("stack"|"cluster", obj).
        self._subjects: List = []
        #: Span collectors to reconcile against their stack's metrics.
        self._collectors: List = []

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, subject) -> "Auditor":
        """Attach to a machine, stack, or cluster (duck-typed)."""
        if hasattr(subject, "hosts") and hasattr(subject, "fabric"):
            return self.attach_cluster(subject)
        if hasattr(subject, "machine") and hasattr(subject, "vms"):
            return self.attach_stack(subject)
        return self.attach_machine(subject)

    def attach_machine(self, machine) -> "Auditor":
        machine.audit = self
        return self

    def attach_stack(self, stack, trace: bool = False) -> "Auditor":
        """Audit one stack; ``trace=True`` additionally enables span
        tracing and reconciles span-attributed cycles against Metrics at
        :meth:`finish` (tracing has a runtime cost, so it stays opt-in
        even inside an audit)."""
        self.attach_machine(stack.machine)
        self._subjects.append(("stack", stack))
        if trace:
            collector = stack.machine.enable_span_tracing()
            self._collectors.append((collector, stack.metrics))
        return self

    def attach_cluster(self, cluster) -> "Auditor":
        cluster.audit = self
        for host in cluster.hosts:
            self.attach_machine(host.machine)
            self._subjects.append(("stack", host.stack))
        self._subjects.append(("cluster", cluster))
        return self

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _violate(self, check: str, subject: str, message: str) -> None:
        self.violations.append(AuditViolation(check, subject, message))

    # ------------------------------------------------------------------
    # Migration lifecycle hooks (called by LiveMigration)
    # ------------------------------------------------------------------
    def on_migration_start(self, vm, cpu_log, device_logs, backends) -> None:
        self.observed["migrations"] += 1
        attached = getattr(vm.memory, "_dirty_logs", set())
        # The fresh cpu_log is already attached when this hook fires; any
        # *other* attached log is debris from an earlier attempt that
        # never tore down — the stacked-dirty-log leak.
        stale = [log for log in attached if log is not cpu_log]
        if stale:
            names = ", ".join(sorted(log.name for log in stale))
            self._violate(
                "migration-lifecycle",
                vm.name,
                f"migration started with {len(stale)} stale dirty log(s) "
                f"still attached ({names}) — a previous attempt leaked",
            )
        if id(vm) in self._open:
            self._violate(
                "migration-lifecycle",
                vm.name,
                "migration started while a previous one never reported its end",
            )
        self._open[id(vm)] = _MigrationAudit(vm, cpu_log, device_logs, backends)

    def on_pages_drained(self, vm, pages: Set[int]) -> None:
        state = self._open.get(id(vm))
        if state is None:
            return
        self.observed["pages_drained"] += len(pages)
        state.outstanding |= pages

    def on_pages_copied(self, vm, pages: Set[int]) -> None:
        state = self._open.get(id(vm))
        if state is None:
            return
        self.observed["pages_copied"] += len(pages)
        state.outstanding -= pages

    def on_migration_end(
        self, vm, outcome: str, cpu_log, device_logs, backends
    ) -> None:
        self.observed[f"migration_{outcome}"] += 1
        self.checks_run += 1
        state = self._open.pop(id(vm), None)
        attached = getattr(vm.memory, "_dirty_logs", set())
        if cpu_log in attached:
            self._violate(
                "migration-lifecycle",
                vm.name,
                f"CPU dirty log {cpu_log.name!r} still attached after a "
                f"migration ended ({outcome})",
            )
        for device, backend in backends:
            if getattr(backend, "dirty_log", None) is not None:
                self._violate(
                    "migration-lifecycle",
                    vm.name,
                    f"device {device.name} dirty logging still enabled "
                    f"after a migration ended ({outcome})",
                )
            if getattr(backend, "paused", False):
                self._violate(
                    "migration-lifecycle",
                    vm.name,
                    f"backend for {device.name} left paused after a "
                    f"migration ended ({outcome})",
                )
        # Dirty-page conservation only binds a *successful* migration:
        # an abort legitimately abandons drained-but-uncopied pages (the
        # VM stays on the source, nothing was lost).
        if outcome == "ok" and state is not None and state.outstanding:
            sample = sorted(state.outstanding)[:8]
            self._violate(
                "dirty-conservation",
                vm.name,
                f"{len(state.outstanding)} drained page(s) were neither "
                f"re-copied nor carried into stop-and-copy "
                f"(e.g. pfns {sample})",
            )

    # ------------------------------------------------------------------
    # Orchestrator hooks
    # ------------------------------------------------------------------
    def on_attempt_end(self, tenant_name: str, processes) -> None:
        """A whole-migration attempt finished (any outcome): none of its
        simulation processes may remain runnable on the shared clock."""
        self.observed["attempts"] += 1
        self.checks_run += 1
        for message in orphaned_process_violations(processes):
            self._violate("orphaned-process", tenant_name, message)

    # ------------------------------------------------------------------
    # Finish
    # ------------------------------------------------------------------
    def finish(self) -> AuditReport:
        """Run finish-time checks over every attached subject and return
        the report.  Idempotent from the subjects' point of view: checks
        only read state."""
        for state in self._open.values():
            self._violate(
                "migration-lifecycle",
                state.vm.name,
                "migration still open at audit finish (never reported end)",
            )
        for kind, subject in self._subjects:
            self.checks_run += 1
            if kind == "stack":
                for message in lifecycle_violations(subject):
                    self._violate(
                        "lifecycle", getattr(subject.machine, "name", "stack"),
                        message,
                    )
            elif kind == "cluster":
                for message in fabric_conservation_violations(subject.fabric):
                    self._violate("fabric-conservation", subject.fabric.name,
                                  message)
        for collector, metrics in self._collectors:
            self.checks_run += 1
            for message in span_reconciliation_violations(collector, metrics):
                self._violate("span-reconcile", "spans", message)
        # Surface fast-forward activity in the report (macro-skipped
        # epochs charge Metrics without opening spans — accepted by the
        # reconciliation check, but never silently): aggregate per
        # simulator, not per subject, since stacks can share a clock.
        observed = Counter(self.observed)
        seen = set()
        for kind, subject in self._subjects:
            sim = subject.machine.sim if kind == "stack" else subject.sim
            if id(sim) in seen:
                continue
            seen.add(id(sim))
            ff = getattr(sim, "ff", None)
            if ff is not None and (ff.epochs_skipped or ff.macro_events):
                observed["ff_epochs_skipped"] += ff.epochs_skipped
                observed["ff_macro_events"] += ff.macro_events
        return AuditReport(
            violations=list(self.violations),
            observed=observed,
            checks_run=self.checks_run,
        )
