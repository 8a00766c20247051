"""Tests for fault plans (repro.faults.plan)."""

import pytest

from repro.faults.plan import FaultClass, FaultPlan, FaultSpec


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        FaultSpec(kind="cosmic_ray")


def test_rate_bounds_enforced():
    with pytest.raises(ValueError):
        FaultSpec(kind=FaultClass.NIC_DROP, rate=1.5)
    with pytest.raises(ValueError):
        FaultSpec(kind=FaultClass.NIC_DROP, rate=-0.1)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        FaultSpec(kind=FaultClass.IRQ_SPURIOUS, count=-1)


def test_duplicate_kind_rejected():
    spec = FaultSpec(kind=FaultClass.NIC_DROP, rate=0.1)
    with pytest.raises(ValueError):
        FaultPlan([spec, spec])


def test_active_window():
    spec = FaultSpec(kind=FaultClass.NIC_DROP, rate=0.1, start=100, end=200)
    assert not spec.active(99)
    assert spec.active(100)
    assert spec.active(199)
    assert not spec.active(200)
    forever = FaultSpec(kind=FaultClass.NIC_DROP, rate=0.1, start=50)
    assert forever.active(10**12)


def test_empty_plan():
    plan = FaultPlan.empty()
    assert plan.is_empty
    assert len(plan) == 0
    assert plan.describe() == "(empty plan)"
    assert plan.faulted_mechanisms() == ()


def test_random_plan_deterministic():
    a = FaultPlan.random(1234)
    b = FaultPlan.random(1234)
    assert a.describe() == b.describe()
    assert a.specs == b.specs


def test_random_plan_seed_sensitivity():
    # Over a few seeds at least one pair must differ (seed matters).
    descs = {FaultPlan.random(s).describe() for s in range(8)}
    assert len(descs) > 1


def test_random_plan_respects_class_pool():
    pool = (FaultClass.NIC_DROP, FaultClass.IRQ_DROP)
    for seed in range(10):
        plan = FaultPlan.random(seed, classes=pool)
        assert {spec.kind for spec in plan.specs} <= set(pool)
        assert not plan.is_empty


def test_random_plan_rejects_unknown_class():
    with pytest.raises(ValueError):
        FaultPlan.random(0, classes=["not_a_fault"])


def test_spec_lookup_and_iteration():
    specs = [
        FaultSpec(kind=FaultClass.NIC_DROP, rate=0.2),
        FaultSpec(kind=FaultClass.IRQ_SPURIOUS, count=3),
    ]
    plan = FaultPlan(specs)
    assert plan.spec_for(FaultClass.NIC_DROP).rate == 0.2
    assert plan.spec_for(FaultClass.MIG_LOSS) is None
    assert list(plan.specs) == specs
    assert "nic_drop" in plan.describe()


def test_faulted_mechanisms_from_spec():
    plan = FaultPlan(
        [
            FaultSpec(
                kind=FaultClass.DVH_CAP_FAULT,
                mechanisms=("virtual_passthrough",),
            )
        ]
    )
    assert plan.faulted_mechanisms() == ("virtual_passthrough",)
