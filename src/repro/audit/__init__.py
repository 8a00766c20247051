"""repro.audit — opt-in runtime invariant auditing.

The simulator's measurements are only as trustworthy as the state they
are computed from.  A retry path that leaks a dirty log or leaves a
backend paused does not crash anything — it silently corrupts every
*later* measurement on the same shared clock, exactly the
state-conservation bug class NecoFuzz hunts in real nested stacks.
This package is the machinery that *finds* such bugs at runtime:

* :class:`~repro.audit.auditor.Auditor` — a passive observer that
  attaches to a machine, stack, or cluster the same way a
  :class:`~repro.faults.FaultInjector` does.  Instrumented sites
  (``LiveMigration``, the cluster orchestrator) consult
  ``machine.audit`` through a ``getattr(..., None)`` guard, so a run
  without an auditor pays a single attribute miss and is byte-identical
  to an un-audited build.
* :mod:`~repro.audit.checks` — pure functions over finished runs:
  resource-lifecycle audits (no :class:`~repro.hw.mem.DirtyLog` left
  attached, no backend left paused), fabric byte conservation
  (tx = rx + undeliverable; ``cross_host`` table vs
  ``Wire.bytes_carried``), and span-vs-Metrics cycle reconciliation.
  :func:`~repro.audit.checks.check_invariants` is the per-run invariant
  set the scenarios runner checks after every faulted machine run
  (exit and cycle conservation, lost wakeups, the lifecycle audits).
* :mod:`~repro.audit.runner` — ``python -m repro audit`` / ``make
  audit``: drives the migration fault matrix, the cluster failure
  scenarios, a traced microbenchmark, and two scenario-spec lists
  (generated scenarios and a fuzz campaign) with the auditor enabled,
  and exits non-zero on any violation.

Everything here observes; nothing mutates simulated state, so enabling
the auditor never changes what a run computes — only whether it is
allowed to pass.
"""

from __future__ import annotations

from repro.audit.auditor import AuditReport, Auditor, AuditViolation
from repro.audit.checks import (
    check_invariants,
    fabric_conservation_violations,
    lifecycle_violations,
    span_reconciliation_violations,
)

__all__ = [
    "Auditor",
    "AuditReport",
    "AuditViolation",
    "check_invariants",
    "lifecycle_violations",
    "fabric_conservation_violations",
    "span_reconciliation_violations",
]
