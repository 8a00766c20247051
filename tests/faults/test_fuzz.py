"""Fault campaigns as scenario specs: the invariant set, fuzz episodes
(``fuzz_specs`` through ``run_scenarios``) and the ``faults`` CLI."""

import hashlib
import json

from repro.audit import check_invariants
from repro.cli import main
from repro.faults import run_fault_workload
from repro.faults.plan import FaultClass
from repro.hv.stack import StackConfig, build_stack
from repro.scenarios import (
    MACHINE_FAULT_CLASSES,
    fuzz_specs,
    run_scenario,
    run_scenarios,
    state_digest,
)

#: sha256 over the newline-joined episode digests of the 25-episode
#: seed-1 campaign (``make fuzz-smoke``), recorded when episodes were
#: still run by a dedicated fuzzer class.  Spec-driven episodes must
#: reproduce it byte for byte.
FUZZ_SMOKE_PIN = "472f5632676d1f96baf7a827653610ac534186519ea46166dfb96aebfd9a1480"


def _failing(results):
    return [r for r in results if r["outcome"] != "ok" or r["violations"]]


def test_fuzz_classes_exclude_migration_wire():
    assert set(MACHINE_FAULT_CLASSES).isdisjoint(set(FaultClass.MIGRATION))
    assert all(
        spec.fault_classes == MACHINE_FAULT_CLASSES for spec in fuzz_specs(3, 5)
    )


def test_invariants_green_on_clean_run():
    stack = build_stack(StackConfig(levels=2, io_model="virtio", workers=2))
    run_fault_workload(stack, ops_per_worker=15, seed=1)
    assert check_invariants(stack) == []


def test_invariants_catch_lost_wakeup():
    """A halted pCPU parking a vCPU with pending interrupts is exactly
    the lost-wakeup shape the checker must flag."""
    stack = build_stack(StackConfig(levels=2, io_model="virtio", workers=2))
    stack.settle()
    ctx = stack.ctx(0)

    def park():
        yield from ctx.wait_for_interrupt()

    stack.sim.spawn(park(), "parked")
    stack.sim.run()
    ctx.lapic.irr.add(0x41)  # latch an interrupt nobody will deliver
    violations = check_invariants(stack)
    assert any("lost wakeup" in v for v in violations)


def test_invariants_catch_negative_cycles():
    stack = build_stack(StackConfig(levels=1, io_model="virtio", workers=2))
    run_fault_workload(stack, ops_per_worker=5, seed=1)
    stack.metrics.cycles["bogus"] = -5
    violations = check_invariants(stack)
    assert any("negative cycle charge" in v for v in violations)


def test_state_digest_reflects_outcome():
    a = build_stack(StackConfig(levels=1, io_model="virtio", workers=2))
    run_fault_workload(a, ops_per_worker=10, seed=4)
    b = build_stack(StackConfig(levels=1, io_model="virtio", workers=2))
    run_fault_workload(b, ops_per_worker=10, seed=4)
    assert state_digest(a) == state_digest(b)

    c = build_stack(StackConfig(levels=1, io_model="virtio", workers=2))
    run_fault_workload(c, ops_per_worker=10, seed=5)
    assert state_digest(c) != state_digest(a)


def test_episode_deterministic_per_seed():
    spec = fuzz_specs(seed=21, count=1)[0]
    a = run_scenario(spec)
    b = run_scenario(spec)
    assert a == b
    assert fuzz_specs(seed=21, count=1)[0].to_json() == spec.to_json()


def test_small_campaign_all_green_with_replay(capsys):
    assert main(
        ["faults", "fuzz", "--episodes", "8", "--seed", "42",
         "--replay-every", "4", "--json"]
    ) == 0
    results = json.loads(capsys.readouterr().out)
    assert _failing(results) == []
    assert len(results) == 8
    assert [r["index"] for r in results if r.get("replayed")] == [0, 4]
    # The campaign actually injected something somewhere.
    assert sum(n for r in results for n in r["injected"].values()) > 0


def test_campaign_totals_aggregate_episodes(capsys):
    specs = fuzz_specs(seed=13, count=4)
    results = run_scenarios(specs)
    manual = {}
    for r in results:
        for kind, n in r["injected"].items():
            manual[kind] = manual.get(kind, 0) + n
    assert main(
        ["faults", "fuzz", "--episodes", "4", "--seed", "13",
         "--replay-every", "0"]
    ) == 0
    out = capsys.readouterr().out
    assert "0 replay-verified" in out
    for kind, n in manual.items():
        assert any(
            line.split() == [kind, str(n)] for line in out.splitlines()
        ), (kind, n)


def test_campaign_progress_callback():
    """Results come back one per spec, in spec order, keyed by index."""
    specs = fuzz_specs(seed=1, count=3)
    results = run_scenarios(specs)
    assert [r["index"] for r in results] == [0, 1, 2]
    assert [r["seed"] for r in results] == [s.seed for s in specs]


def test_fuzz_campaign_digest_pin():
    results = run_scenarios(fuzz_specs(seed=1, count=25))
    assert _failing(results) == []
    joined = "\n".join(r["digest"] for r in results)
    assert hashlib.sha256(joined.encode()).hexdigest() == FUZZ_SMOKE_PIN


def test_fuzz_failure_prints_replayable_spec(capsys, monkeypatch):
    """A failing episode's report carries its canonical spec line."""

    def crash(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr("repro.scenarios.runner.run_fault_workload", crash)
    assert main(
        ["faults", "fuzz", "--episodes", "2", "--seed", "3",
         "--replay-every", "0"]
    ) == 1
    out = capsys.readouterr().out
    assert "FAILURES (2):" in out
    assert "crash: ValueError: boom" in out
    spec_lines = [
        line.strip()[len("spec: "):]
        for line in out.splitlines()
        if line.strip().startswith("spec: ")
    ]
    assert spec_lines == [s.to_json() for s in fuzz_specs(seed=3, count=2)]


def test_plan_reports_crash(capsys, monkeypatch):
    """An exception other than a stranded worker is a ``crash:``
    outcome and exit status 1, not a traceback."""
    from repro.hv.vm import VCpu

    def boom(self, dest_index, vector):
        raise ValueError("boom")

    monkeypatch.setattr(VCpu, "send_ipi", boom)
    assert main(["faults", "plan", "--levels", "2", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "INVARIANT VIOLATIONS (1):" in out
    assert "  - crash: ValueError: boom" in out
