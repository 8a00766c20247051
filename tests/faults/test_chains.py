"""Per-chain exit conservation (ChainTracker) tests."""

from repro.audit import check_invariants
from repro.core.features import DvhFeatures
from repro.faults.chains import ChainTracker
from repro.faults.injector import build_faulted_stack
from repro.faults.plan import FaultPlan
from repro.hv.stack import StackConfig, build_stack
from repro.workloads.microbench import run_microbenchmark


def test_tracker_balances_per_chain_on_clean_run():
    stack = build_stack(StackConfig(levels=2))
    tracker = ChainTracker()
    stack.machine.chain_tracker = tracker
    run_microbenchmark(stack, "Hypercall", iterations=2)
    assert len(tracker.exits) > 0
    assert tracker.violations() == []
    # Every chain fully resolved, except possibly one HLT parked in L0's
    # halt emulation at drain time (the workload's final wait).
    for cid in tracker.exits:
        assert tracker.chain_slack(cid) in (0, 1)
    # Nested config: forwarded chains multiplied into deeper frames.
    assert max(tracker.max_depth.values()) >= 1
    assert sum(tracker.forwards.values()) > 0


def test_tracker_agrees_with_machine_wide_counters():
    stack = build_stack(
        StackConfig(levels=3, io_model="vp", dvh=DvhFeatures.full())
    )
    tracker = ChainTracker()
    stack.machine.chain_tracker = tracker
    run_microbenchmark(stack, "ProgramTimer", iterations=3)
    metrics = stack.metrics
    preempt = metrics.exits_for_reason("preemption_timer")
    assert sum(tracker.exits.values()) == metrics.total_exits() - preempt
    assert sum(tracker.forwards.values()) == metrics.guest_hv_interventions()
    assert sum(tracker.handled.values()) == sum(metrics.l0_handled.values())


def test_tracker_flags_unbalanced_chain():
    tracker = ChainTracker()

    class FakeEctx:
        def __init__(self, cid, reason, depth=0, level=2):
            from repro.hw.ops import ExitReason

            class E:
                pass

            self.chain_id = cid
            self.depth = depth
            self.origin_level = level
            self.exit_ = E()
            self.exit_.reason = ExitReason[reason]

        @property
        def reason(self):
            return self.exit_.reason

    good = FakeEctx(1, "VMCALL")
    tracker.on_exit(good)
    tracker.on_forward(good, owner=1)
    bad = FakeEctx(2, "CPUID")
    tracker.on_exit(bad)  # never handled nor forwarded
    out = tracker.violations()
    assert len(out) == 1
    assert "chain #2" in out[0]
    assert "non-hlt imbalance" in out[0]


def test_fuzz_invariants_include_chain_checks():
    plan = FaultPlan.random(7, intensity=0.05)
    stack, injector = build_faulted_stack(
        StackConfig(levels=2, workers=2), plan, seed=7
    )
    assert stack.machine.chain_tracker is not None
    from repro.faults.workload import run_fault_workload

    run_fault_workload(stack, ops_per_worker=10, seed=7, workers=2)
    assert check_invariants(stack) == []
    assert len(stack.machine.chain_tracker.exits) > 0
