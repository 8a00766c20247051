"""The runtime invariant auditor: green on clean runs, red on leaks.

The regression tests here monkeypatch the migration-lifecycle fixes
back *out* and assert the audit turns red — the tripwire the ISSUE asks
for: reintroducing the leaked-dirty-log / paused-backend bug must fail
``make audit``, not just the two hand-written unit tests.
"""

import pytest

from repro.audit import Auditor
from repro.audit.checks import (
    fabric_conservation_violations,
    lifecycle_violations,
    orphaned_process_violations,
)
from repro.audit.runner import render_audit, run_audit
from repro.core.features import DvhFeatures
from repro.core.migration import LiveMigration
from repro.hv.stack import StackConfig, build_stack
from repro.hw.mem import DirtyLog
from repro.sim import Simulator


def make_stack(levels=2):
    stack = build_stack(
        StackConfig(levels=levels, io_model="vp", dvh=DvhFeatures.full())
    )
    stack.settle()
    return stack


# ----------------------------------------------------------------------
# Lifecycle hooks around LiveMigration
# ----------------------------------------------------------------------
def test_clean_audited_migration_is_green():
    stack = make_stack()
    auditor = Auditor().attach_stack(stack)
    mig = LiveMigration(
        stack.machine, stack.leaf_vm, devices=[stack.net.device]
    )
    stack.sim.run_process(mig.run(), "m")
    report = auditor.finish()
    assert report.ok, report.render()
    assert report.observed["migrations"] == 1
    assert report.observed["migration_ok"] == 1
    assert report.checks_run >= 2


def test_audit_does_not_perturb_the_migration():
    """Auditing only observes: identical MigrationResult with and
    without an auditor attached."""

    def run(audited):
        stack = make_stack()
        if audited:
            Auditor().attach_stack(stack)
        mig = LiveMigration(
            stack.machine, stack.leaf_vm, devices=[stack.net.device]
        )
        return stack.sim.run_process(mig.run(), "m")

    assert run(False) == run(True)


def test_reverted_teardown_trips_the_auditor(monkeypatch):
    monkeypatch.setattr(
        LiveMigration, "_teardown", lambda self, cpu_log, backends: None
    )
    stack = make_stack()
    auditor = Auditor().attach_stack(stack)
    mig = LiveMigration(
        stack.machine, stack.leaf_vm, devices=[stack.net.device]
    )
    stack.sim.run_process(mig.run(), "m")
    report = auditor.finish()
    assert not report.ok
    checks = {v.check for v in report.violations}
    assert "migration-lifecycle" in checks
    messages = "\n".join(v.message for v in report.violations)
    assert "still attached" in messages
    assert "dirty logging still enabled" in messages


def test_stale_log_from_a_leaked_attempt_is_flagged_at_start():
    """The stacked-dirty-log leak: a log left behind by a previous
    attempt is caught the moment the next migration starts."""
    stack = make_stack()
    auditor = Auditor().attach_stack(stack)
    stack.leaf_vm.memory.attach_dirty_log(DirtyLog("leaked-prior-attempt"))
    mig = LiveMigration(
        stack.machine, stack.leaf_vm, devices=[stack.net.device]
    )
    stack.sim.run_process(mig.run(), "m")
    report = auditor.finish()
    assert any(
        v.check == "migration-lifecycle" and "stale" in v.message
        for v in report.violations
    )
    # ... and again at finish: the leaked log is still attached.
    assert any(v.check == "lifecycle" for v in report.violations)


# ----------------------------------------------------------------------
# Dirty-page conservation (hook-level, no stack needed)
# ----------------------------------------------------------------------
class _FakeMem:
    dirty_logs = frozenset()


class _FakeVm:
    def __init__(self, name="vm0"):
        self.name = name
        self.memory = _FakeMem()


def test_dirty_conservation_binds_successful_migrations():
    auditor = Auditor()
    vm, log = _FakeVm(), object()
    auditor.on_migration_start(vm, log, [], [])
    auditor.on_pages_drained(vm, {1, 2, 3})
    auditor.on_pages_copied(vm, {1})
    auditor.on_migration_end(vm, "ok", log, [], [])
    assert any(v.check == "dirty-conservation" for v in auditor.violations)


def test_dirty_conservation_excuses_aborts():
    """An abort legitimately abandons drained pages: the VM never left
    the source, nothing was lost."""
    auditor = Auditor()
    vm, log = _FakeVm(), object()
    auditor.on_migration_start(vm, log, [], [])
    auditor.on_pages_drained(vm, {1, 2})
    auditor.on_migration_end(vm, "failed", log, [], [])
    assert not auditor.violations


def test_migration_never_reporting_end_is_flagged_at_finish():
    auditor = Auditor()
    auditor.on_migration_start(_FakeVm(), object(), [], [])
    report = auditor.finish()
    assert any("never reported" in v.message for v in report.violations)


# ----------------------------------------------------------------------
# Orphaned-process and fabric-conservation checks
# ----------------------------------------------------------------------
def test_orphaned_process_detection():
    sim = Simulator(seed=0)

    def forever():
        while True:
            yield 100

    proc = sim.spawn(forever(), "spinner")
    sim.run(until=1_000)
    assert orphaned_process_violations([proc])
    proc.cancel()
    assert not orphaned_process_violations([proc])

    def boom():
        yield 1
        raise RuntimeError("deliberate")

    crashed = sim.spawn(boom(), "boom")
    with pytest.raises(RuntimeError):
        sim.run()
    # A raised generator is retired (never rescheduled), not orphaned.
    assert not orphaned_process_violations([crashed])


def test_fabric_conservation_green_then_tamper_detected():
    from repro.cluster import Cluster

    cluster = Cluster(num_hosts=2, seed=0)
    cluster.stream("host0", "host1", 1 << 20)
    cluster.sim.run()
    assert fabric_conservation_violations(cluster.fabric) == []
    # Claim more metered bytes than the downlinks ever carried.
    cluster.fabric.metrics.cross_host[("host0", "host1", "net")] += 10**12
    assert fabric_conservation_violations(cluster.fabric)


def test_lifecycle_violations_on_manually_leaked_state():
    stack = make_stack()
    assert lifecycle_violations(stack) == []
    stack.leaf_vm.memory.attach_dirty_log(DirtyLog("leak"))
    backend = stack.machine.host_hv.backends[stack.net.device]
    backend.pause()
    out = lifecycle_violations(stack)
    assert any("dirty log" in v for v in out)
    assert any("left paused" in v for v in out)


# ----------------------------------------------------------------------
# Span reconciliation (cycle conservation)
# ----------------------------------------------------------------------
def test_traced_stack_reconciles_spans_against_metrics():
    from repro.workloads.microbench import run_microbenchmark

    stack = build_stack(
        StackConfig(levels=2, io_model="vp", dvh=DvhFeatures.full())
    )
    auditor = Auditor().attach_stack(stack, trace=True)
    run_microbenchmark(stack, "ProgramTimer", 5)
    report = auditor.finish()
    assert report.ok, report.render()


# ----------------------------------------------------------------------
# The full matrix: green on main, red with the fix reverted
# ----------------------------------------------------------------------
def test_audit_matrix_green_then_red_when_teardown_reverted(monkeypatch):
    run = run_audit(seed=0, episodes=0)
    assert run.ok, render_audit(run)
    assert len(run.scenarios) >= 18

    monkeypatch.setattr(
        LiveMigration, "_teardown", lambda self, cpu_log, backends: None
    )
    bad = run_audit(seed=0, episodes=0)
    assert not bad.ok
    assert "RED" in render_audit(bad)
    joined = "\n".join(v for s in bad.scenarios for v in s.violations)
    assert "still attached" in joined
    assert "left paused" in joined


def test_fuzzer_audit_flag_preserves_digests():
    from repro.scenarios import fuzz_specs, run_scenarios

    specs = fuzz_specs(seed=7, count=3)
    base = run_scenarios(specs)
    audited = run_scenarios(specs, audit=True)
    assert all(r["outcome"] == "ok" and not r["violations"] for r in audited)
    assert [r["digest"] for r in base] == [r["digest"] for r in audited]


def test_cli_audit_subcommand(capsys):
    from repro.cli import main

    assert main(["audit", "--episodes", "0"]) == 0
    out = capsys.readouterr().out
    assert "GREEN" in out
