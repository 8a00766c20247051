"""Integration: virtualization levels beyond the paper's L3.

The paper stops at three levels because "additional virtualization
levels are not supported by KVM" (§4).  The simulator has no such
limit, so we can test the paper's central claims *extrapolate*: exit
multiplication keeps compounding ~20x per level, while recursive DVH
(§3.5) stays flat at any depth.
"""

import pytest

from repro.core.features import DvhFeatures
from repro.hv.stack import MAX_LEVELS, StackConfig, build_stack
from repro.workloads.microbench import run_microbenchmark


def test_max_levels_is_beyond_paper():
    assert MAX_LEVELS >= 4


def test_level_cap_enforced():
    with pytest.raises(ValueError):
        build_stack(StackConfig(levels=MAX_LEVELS + 1))


def test_l4_stack_builds_and_chains():
    stack = build_stack(StackConfig(levels=4))
    assert [hv.level for hv in stack.hvs] == [0, 1, 2, 3]
    leaf = stack.ctx(0)
    assert [v.level for v in leaf._chain] == [1, 2, 3, 4]


def test_exit_multiplication_keeps_compounding_at_l4():
    l3 = run_microbenchmark(build_stack(StackConfig(levels=3)), "Hypercall", 3)
    l4 = run_microbenchmark(build_stack(StackConfig(levels=4)), "Hypercall", 3)
    assert 10 <= l4 / l3 <= 35


def test_recursive_dvh_flat_at_l4():
    """§3.5's recursion scales: one exit, zero interventions, near-L2
    cost — four levels deep."""
    stack = build_stack(StackConfig(levels=4, io_model="vp", dvh=DvhFeatures.full()))
    stack.settle()
    ctx = stack.ctx(0)
    before = stack.metrics.copy()

    def op():
        yield from ctx.program_timer(ctx.read_tsc() + 10**9)

    stack.sim.run_process(op())
    delta = stack.metrics.diff(before)
    assert delta.total_exits() == 1
    assert delta.guest_hv_interventions() == 0

    l2 = run_microbenchmark(
        build_stack(StackConfig(levels=2, io_model="vp", dvh=DvhFeatures.full())),
        "ProgramTimer",
        10,
    )
    l4 = run_microbenchmark(
        build_stack(StackConfig(levels=4, io_model="vp", dvh=DvhFeatures.full())),
        "ProgramTimer",
        10,
    )
    assert l4 / l2 < 2.0


def test_l4_dvh_vcimt_registered_through_chain():
    stack = build_stack(StackConfig(levels=4, io_model="vp", dvh=DvhFeatures.full()))
    # The table for the L4 leaf lives in the L3 VM's memory.
    assert stack.leaf_vm.vcimtar is not None
    entry = stack.vms[2].memory.read(stack.leaf_vm.vcimtar)
    assert entry is stack.ctx(0)


def test_l4_dvh_workload_end_to_end():
    from repro.workloads.apps import run_app

    native = build_stack(StackConfig(levels=0, io_model="native"))
    base = run_app(native, "netperf_rr", scale=0.15)
    stack = build_stack(StackConfig(levels=4, io_model="vp", dvh=DvhFeatures.full()))
    r = run_app(stack, "netperf_rr", scale=0.15)
    assert r.overhead_vs(base) < 2.5
