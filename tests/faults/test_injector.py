"""Tests for the fault injector: determinism, identity, hook installs."""

import pytest

from repro.core.features import DvhFeatures
from repro.faults import (
    FaultClass,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    build_faulted_stack,
    degrade_config,
    run_fault_workload,
)
from repro.hv.stack import StackConfig, build_stack
from repro.scenarios import state_digest


def l2_config(**overrides):
    base = dict(levels=2, io_model="virtio", workers=2)
    base.update(overrides)
    return StackConfig(**base)


def test_empty_plan_installs_nothing():
    stack = build_stack(l2_config())
    injector = FaultInjector(stack.machine, FaultPlan.empty(), seed=1).attach(stack)
    assert stack.machine.faults is injector
    assert stack.machine.nic.fault_hook is None
    assert stack.machine.iommu.fault_hook is None
    for ctx in stack.ctxs:
        assert ctx.lapic.fault_hook is None
    assert injector.summary() == {}


def test_empty_plan_run_byte_identical_to_no_injector():
    """The empty plan is the identity: attaching it changes nothing."""
    plain = build_stack(l2_config())
    run_fault_workload(plain, ops_per_worker=15, seed=3)
    baseline = state_digest(plain)

    faulted = build_stack(l2_config())
    injector = FaultInjector(faulted.machine, FaultPlan.empty(), seed=99).attach(
        faulted
    )
    run_fault_workload(faulted, ops_per_worker=15, seed=3)
    assert state_digest(faulted) == baseline
    assert injector.summary() == {}
    assert faulted.metrics.total_faults() == 0
    assert faulted.metrics.total_recoveries() == 0


def test_same_seed_same_outcome():
    digests = []
    for _ in range(2):
        plan = FaultPlan(
            [
                FaultSpec(kind=FaultClass.NIC_DROP, rate=0.3),
                FaultSpec(kind=FaultClass.IRQ_SPURIOUS, count=3, end=16_000_000),
            ]
        )
        stack, injector = build_faulted_stack(l2_config(), plan, seed=11)
        run_fault_workload(stack, ops_per_worker=15, seed=3)
        digests.append(state_digest(stack, injector))
    assert digests[0] == digests[1]


def test_injector_seed_changes_outcome():
    digests = []
    for inj_seed in (11, 12):
        plan = FaultPlan([FaultSpec(kind=FaultClass.NIC_DROP, rate=0.5)])
        stack, injector = build_faulted_stack(l2_config(), plan, seed=inj_seed)
        run_fault_workload(stack, ops_per_worker=15, seed=3)
        digests.append(state_digest(stack, injector))
    assert digests[0] != digests[1]


def test_reattach_rejected():
    stack = build_stack(l2_config())
    injector = FaultInjector(stack.machine, FaultPlan.empty()).attach(stack)
    with pytest.raises(RuntimeError):
        injector.attach(stack)


def test_nic_drop_recorded_in_metrics_and_summary():
    plan = FaultPlan([FaultSpec(kind=FaultClass.NIC_DROP, rate=1.0)])
    stack, injector = build_faulted_stack(l2_config(), plan, seed=5)
    run_fault_workload(stack, ops_per_worker=12, seed=2)
    dropped = injector.summary()[FaultClass.NIC_DROP]
    assert dropped > 0
    assert stack.metrics.faults[FaultClass.NIC_DROP] == dropped


def test_degrade_config_falls_back_to_virtio():
    plan = FaultPlan(
        [
            FaultSpec(
                kind=FaultClass.DVH_CAP_FAULT,
                mechanisms=("virtual_passthrough",),
            )
        ]
    )
    config = l2_config(io_model="vp", dvh=DvhFeatures.full())
    degraded, dropped = degrade_config(config, plan)
    assert degraded.io_model == "virtio"
    assert not degraded.dvh.virtual_passthrough
    # Dependency closure: posted vIOMMU interrupts need passthrough.
    assert not degraded.dvh.viommu_posted_interrupts
    assert "virtual_passthrough" in dropped
    assert "viommu_posted_interrupts" in dropped
    # Unrelated mechanisms survive.
    assert degraded.dvh.virtual_timer


def test_degrade_config_without_cap_fault_is_identity():
    config = l2_config(io_model="vp", dvh=DvhFeatures.full())
    plan = FaultPlan([FaultSpec(kind=FaultClass.NIC_DROP, rate=0.5)])
    degraded, dropped = degrade_config(config, plan)
    assert degraded is config
    assert dropped == []


def test_build_faulted_stack_counts_dvh_fallback():
    plan = FaultPlan(
        [
            FaultSpec(
                kind=FaultClass.DVH_CAP_FAULT,
                mechanisms=("virtual_passthrough",),
            )
        ]
    )
    stack, _injector = build_faulted_stack(
        l2_config(io_model="vp", dvh=DvhFeatures.full()), plan, seed=0
    )
    assert stack.config.io_model == "virtio"
    assert stack.metrics.faults[FaultClass.DVH_CAP_FAULT] >= 1
    assert stack.metrics.recoveries["dvh_fallback"] == 1


def test_cap_fault_on_plain_stack_is_not_counted():
    """Faulting a capability nobody requested injects nothing."""
    plan = FaultPlan(
        [
            FaultSpec(
                kind=FaultClass.DVH_CAP_FAULT,
                mechanisms=("virtual_passthrough",),
            )
        ]
    )
    stack, _injector = build_faulted_stack(l2_config(), plan, seed=0)
    assert stack.config.io_model == "virtio"
    assert stack.metrics.faults.get(FaultClass.DVH_CAP_FAULT, 0) == 0
    assert stack.metrics.recoveries.get("dvh_fallback", 0) == 0
