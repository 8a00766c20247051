"""Property tests for fault-injection determinism.

Two properties the whole subsystem rests on:

* same seed => byte-identical outcome, for any plan/stack drawn from the
  machine-scenario fault space;
* a zero-fault plan is the identity: runs with an empty-plan injector
  attached are byte-identical to runs with no injector at all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultClass,
    FaultInjector,
    FaultPlan,
    build_faulted_stack,
    run_fault_workload,
)
from repro.hv.stack import StackConfig, build_stack
from repro.scenarios import MACHINE_FAULT_CLASSES, state_digest

CONFIGS = [
    StackConfig(levels=1, io_model="virtio", workers=2),
    StackConfig(levels=2, io_model="virtio", workers=2),
    StackConfig(levels=2, io_model="passthrough", workers=2),
]


@settings(max_examples=10, deadline=None)
@given(
    plan_seed=st.integers(min_value=0, max_value=2**20),
    inj_seed=st.integers(min_value=0, max_value=2**20),
    config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
)
def test_same_seed_byte_identical(plan_seed, inj_seed, config_index):
    digests = []
    for _ in range(2):
        plan = FaultPlan.random(plan_seed, classes=MACHINE_FAULT_CLASSES, intensity=0.1)
        stack, injector = build_faulted_stack(
            CONFIGS[config_index], plan, seed=inj_seed
        )
        try:
            run_fault_workload(stack, ops_per_worker=10, seed=plan_seed)
        except RuntimeError:
            pass  # a stranded worker must at least strand identically
        digests.append(state_digest(stack, injector))
    assert digests[0] == digests[1]


@settings(max_examples=8, deadline=None)
@given(
    workload_seed=st.integers(min_value=0, max_value=2**20),
    config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
)
def test_zero_fault_plan_is_identity(workload_seed, config_index):
    plain = build_stack(CONFIGS[config_index])
    run_fault_workload(plain, ops_per_worker=10, seed=workload_seed)
    baseline = state_digest(plain)

    faulted = build_stack(CONFIGS[config_index])
    injector = FaultInjector(
        faulted.machine, FaultPlan.empty(), seed=workload_seed + 1
    ).attach(faulted)
    run_fault_workload(faulted, ops_per_worker=10, seed=workload_seed)
    assert state_digest(faulted) == baseline
    assert injector.summary() == {}


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30))
def test_random_plans_always_valid(seed):
    plan = FaultPlan.random(seed)
    assert not plan.is_empty
    for spec in plan.specs:
        assert spec.kind in FaultClass.ALL
        assert 0.0 <= spec.rate <= 1.0
        assert spec.count >= 0
