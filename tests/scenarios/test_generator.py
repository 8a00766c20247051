"""Generator determinism and constraint properties."""

import json
import random

import pytest

from repro.scenarios import (
    ScenarioSpec,
    draw_grants,
    draw_stack_shape,
    dvh_name,
    fuzz_specs,
    generate_specs,
    mixed_tenant_specs,
    scenario_seed,
)


def test_same_seed_byte_identical_specs():
    a = "\n".join(s.to_json() for s in generate_specs(seed=11, count=30))
    b = "\n".join(s.to_json() for s in generate_specs(seed=11, count=30))
    assert a == b


def test_different_seeds_differ():
    a = [s.to_json() for s in generate_specs(seed=1, count=10)]
    b = [s.to_json() for s in generate_specs(seed=2, count=10)]
    assert a != b


def test_spec_json_round_trip():
    for spec in generate_specs(seed=4, count=20):
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.digest() == spec.digest()


def test_every_generated_spec_is_valid():
    for spec in generate_specs(seed=9, count=40):
        spec.validate()  # must not raise


def test_generator_covers_both_topologies_and_all_arches():
    specs = generate_specs(seed=0, count=60)
    assert {s.topology for s in specs} == {"machine", "cluster"}
    assert {s.arch for s in specs} == {"x86", "arm", "riscv"}


def test_constraints_hold_by_construction():
    """The generator may only emit combinations the builders accept:
    Xen never lands on RISC-V, hs never off RISC-V, vp I/O only with
    nesting, and grants only where GrantSet.validate allows them."""
    for spec in generate_specs(seed=7, count=80):
        if spec.arch == "riscv":
            assert spec.guest_hv == "hs"
        else:
            assert spec.guest_hv in ("kvm", "xen")
        if spec.topology == "machine":
            if spec.io_model == "vp":
                assert spec.levels >= 2
            if spec.grants:
                assert spec.levels >= 2


def test_arch_pool_restriction():
    specs = generate_specs(seed=3, count=20, arches=("riscv",))
    assert {s.arch for s in specs} == {"riscv"}
    assert all(s.guest_hv == "hs" for s in specs)


def test_stack_shape_draws_match_fuzzer_stream():
    """A fuzz episode is one stack-shape draw then the plan seed from
    the episode's own rng; that consumption order must stay stable so
    campaign seeds keep reproducing old episodes."""
    for index, spec in enumerate(fuzz_specs(seed=5, count=20)):
        rng = random.Random(scenario_seed(5, index))
        direct = draw_stack_shape(rng, (0, 1, 2, 3), 2)
        direct.validate()
        assert (
            direct.levels,
            direct.io_model,
            dvh_name(direct.dvh),
            direct.ooh.names() if direct.ooh else (),
            rng.randrange(1 << 30),
        ) == (
            spec.levels,
            spec.io_model,
            spec.dvh,
            spec.grants,
            spec.fault_seed,
        )
        assert (spec.arch, spec.guest_hv, spec.workers) == ("x86", "kvm", 2)


def test_grants_never_dirty_on_passthrough():
    from repro.core.features import DvhFeatures

    rng = random.Random(6)
    for _ in range(200):
        grants = draw_grants(rng, 2, "passthrough", DvhFeatures.none())
        if grants is not None:
            assert not (
                {"dirty_logging", "dirty_ring"} & set(grants.names())
            )


def test_mixed_tenant_specs_matches_sweep_fleet():
    """standard_tenants delegates here: the canonical fleet bytes must
    be exactly the historic formula's."""
    from repro.cluster.sweep import standard_tenants

    assert standard_tenants(7) == mixed_tenant_specs(7)
    spec = mixed_tenant_specs(6)[1]
    assert (spec.name, spec.io_model, spec.memory_gb, spec.load) == (
        "t1",
        "vp",
        12,
        1150,
    )


def test_scenario_seed_mixing_matches_fuzzer():
    assert scenario_seed(42, 17) == 42 * 1_000_003 + 17
    assert fuzz_specs(seed=42, count=18)[17].seed == scenario_seed(42, 17)


def test_pinned_campaign_shape():
    """Byte-pin one small campaign so accidental draw-order changes
    surface as a diff, not as silently different coverage."""
    descs = [s.desc for s in generate_specs(seed=0, count=6)]
    assert descs == [
        "arm/xen cluster/spread hosts=4 tenants=5",
        "x86/kvm L3/passthrough+dvh+ooh1",
        "x86/kvm cluster/load-balance hosts=2 tenants=4",
        "x86/kvm L3/vp+dvh",
        "x86/xen cluster/spread hosts=3 tenants=3",
        "riscv/hs L2/vp+dvh",
    ]
