"""Shrink semantics: deterministic greedy minimization."""

import pytest

from repro.scenarios import (
    ScenarioSpec,
    TenantDraw,
    generate_specs,
    shrink_candidates,
    shrink_scenario,
)


def _machine_spec(**overrides):
    base = dict(
        seed=1,
        topology="machine",
        levels=2,
        io_model="virtio",
        dvh="full",
        grants=(),
        ops_per_worker=20,
        fault_classes=("nic_drop", "irq_drop"),
        fault_seed=5,
    )
    base.update(overrides)
    return ScenarioSpec(**base).validate()


def test_green_scenario_refuses_to_shrink():
    with pytest.raises(ValueError, match="does not fail"):
        shrink_scenario(_machine_spec())


def test_candidates_are_all_valid_and_strictly_smaller():
    spec = _machine_spec(grants=("timer_deadline",), dvh="none")
    for step, candidate in shrink_candidates(spec):
        candidate.validate()
        assert candidate != spec
        assert isinstance(step, str) and step


def test_candidates_never_produce_invalid_combos():
    """Reducing levels under a vp stack (vp needs nesting) must be
    filtered out, not emitted as an invalid candidate."""
    spec = _machine_spec(io_model="vp", dvh="full", levels=2)
    for _step, candidate in shrink_candidates(spec):
        candidate.validate()
        if candidate.io_model == "vp":
            assert candidate.levels >= 2


def test_shrink_is_deterministic_and_minimizes():
    """With a synthetic predicate ("fails while irq_drop is drawn"),
    shrinking must strip everything irrelevant and keep the trigger."""
    spec = _machine_spec(
        grants=("timer_deadline", "posted_interrupts"),
        dvh="none",
        fault_classes=("nic_drop", "irq_drop", "iommu_fault"),
    )

    def fails(candidate):
        return "irq_drop" in candidate.fault_classes

    minimal_a, steps_a = shrink_scenario(spec, fails=fails)
    minimal_b, steps_b = shrink_scenario(spec, fails=fails)
    assert (minimal_a, steps_a) == (minimal_b, steps_b)
    assert minimal_a.fault_classes == ("irq_drop",)
    assert minimal_a.grants == ()
    assert minimal_a.ops_per_worker == 1
    assert minimal_a.workers == 1
    assert minimal_a.levels == 0


def test_cluster_shrink_drops_tenants_and_hosts():
    spec = next(
        s for s in generate_specs(seed=0, count=6) if s.topology == "cluster"
    )

    def fails(candidate):
        return len(candidate.tenants) >= 2

    minimal, steps = shrink_scenario(spec, fails=fails)
    assert len(minimal.tenants) == 2
    assert minimal.hosts == 2
    assert any("drop tenant" in step for step in steps)


def test_fuzz_finding_shrinks():
    """A fuzz episode is a spec, so a finding shrinks like any other."""
    from repro.scenarios import fuzz_specs

    spec = next(s for s in fuzz_specs(seed=1, count=25) if s.levels >= 2)

    def fails(candidate):
        return "irq_drop" in candidate.fault_classes and candidate.levels >= 1

    minimal, steps = shrink_scenario(spec, fails=fails)
    assert minimal.fault_classes == ("irq_drop",)
    assert minimal.levels == 1
    assert minimal.ops_per_worker == 1
    assert minimal.dvh == "none" and minimal.grants == ()
    assert len(steps) >= len(spec.fault_classes) - 1
    assert shrink_scenario(spec, fails=fails) == (minimal, steps)
