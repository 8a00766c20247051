"""Tests for the head-to-head study harness: spec parsing, variant
configurations, deterministic digests, and the headline comparisons."""

import pytest

from repro.dc.spec import SpecError
from repro.ooh.grants import GrantConflictError
from repro.study import (
    VARIANTS,
    StudySpec,
    run_study,
    scenario_rankings,
    render_study,
    study_cell,
    study_tasks,
    variant_config,
)

#: A trimmed matrix that exercises every scenario family quickly.
TRIMMED = StudySpec(
    name="trimmed",
    variants=("baseline", "ooh"),
    micro_benches=("DevNotify",),
    micro_guest_hvs=("kvm",),
    micro_iterations=5,
    app_names=(),
    migration=False,
    cluster_hosts=0,
)


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------
def test_spec_rejects_unknown_keys():
    with pytest.raises(SpecError, match="study: unknown key 'bogus'"):
        StudySpec.from_dict({"name": "x", "bogus": 1})


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"micro_iterations": "5"}',
        '{"cluster_hosts": 1}',
        '{"cluster_hosts": -1}',
        '{"app_scale": "x"}',
        '{"app_names": ["nope"]}',
        '{"migration": "false"}',
        '{"name": "a", "name": "b"}',
    ],
)
def test_spec_file_defects_rejected(tmp_path, text):
    path = tmp_path / "study.json"
    path.write_text(text)
    with pytest.raises(SpecError):
        StudySpec.from_file(str(path))


def test_spec_rejects_unknown_variant_bench_and_hv():
    with pytest.raises(ValueError, match="variant"):
        StudySpec(variants=("baseline", "nope"))
    with pytest.raises(ValueError, match="microbenchmark"):
        StudySpec(micro_benches=("NotABench",))
    with pytest.raises(ValueError, match="guest_hv"):
        StudySpec(micro_guest_hvs=("bhyve",))


def test_spec_from_dict_converts_lists_to_tuples():
    spec = StudySpec.from_dict(
        {"name": "t", "variants": ["dvh"], "micro_benches": ["Hypercall"]}
    )
    assert spec.variants == ("dvh",)
    assert spec.micro_benches == ("Hypercall",)


def test_example_spec_file_parses():
    spec = StudySpec.from_file("examples/study_matrix.json")
    assert spec.name == "example"
    assert spec.variants == VARIANTS


# ----------------------------------------------------------------------
# Variant configurations
# ----------------------------------------------------------------------
def test_every_variant_installs_the_ooh_layer():
    for variant in VARIANTS:
        config = variant_config(variant)
        assert config.ooh is not None, variant


def test_variant_grants_match_the_design():
    assert not variant_config("baseline").ooh.any_granted
    assert not variant_config("dvh").ooh.any_granted
    assert variant_config("ooh").ooh.dirty_ring
    assert variant_config("dvh+ooh").ooh.names() == ("dirty_logging",)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown study variant"):
        variant_config("hybrid")


def test_dvh_plus_full_grants_would_collide():
    """Why dvh+ooh carries only dirty_logging: the timer/IPI grants
    collide with the DVH ownership claims at build time."""
    from dataclasses import replace

    from repro.hv.stack import build_stack
    from repro.ooh.grants import GrantSet

    config = variant_config("dvh+ooh")
    with pytest.raises(GrantConflictError):
        build_stack(replace(config, ooh=GrantSet.full()))


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_tasks_are_plain_tuples_in_report_order():
    tasks = study_tasks(TRIMMED, seed=3)
    assert tasks == [
        ("micro", "baseline", "kvm", "DevNotify", 5, 3),
        ("micro", "ooh", "kvm", "DevNotify", 5, 3),
    ]


def test_digest_identical_across_jobs_and_fast_forward(monkeypatch):
    monkeypatch.setenv("REPRO_FAST_FORWARD", "1")
    serial = run_study(TRIMMED, seed=3, jobs=1)
    fanned = run_study(TRIMMED, seed=3, jobs=2)
    monkeypatch.setenv("REPRO_FAST_FORWARD", "0")
    stepped = run_study(TRIMMED, seed=3, jobs=1)
    assert serial.digest == fanned.digest == stepped.digest
    assert serial.rows == fanned.rows == stepped.rows
    assert serial.to_json()["digest"] == serial.digest


# ----------------------------------------------------------------------
# Headline comparisons (the study's acceptance criteria)
# ----------------------------------------------------------------------
def test_dvh_beats_ooh_on_the_io_path():
    dvh = study_cell(("micro", "dvh", "kvm", "DevNotify", 5, 0))
    ooh = study_cell(("micro", "ooh", "kvm", "DevNotify", 5, 0))
    assert dvh["cycles"] < ooh["cycles"]


def test_ooh_beats_dvh_on_dirty_tracking_migration():
    dvh = study_cell(("migration", "dvh", 0))
    ooh = study_cell(("migration", "ooh", 0))
    assert ooh["dirty_tracking_cycles"] < dvh["dirty_tracking_cycles"]
    assert ooh["dirty_mode"] == "dirty_ring"
    assert dvh["dirty_mode"] == "forwarded"


def test_cluster_cell_reconciles_grants_per_tenant():
    ooh = study_cell(("cluster", "ooh", 2, 0))
    baseline = study_cell(("cluster", "baseline", 2, 0))
    assert ooh["outcome"] == baseline["outcome"] == "ok"
    assert ooh["pages_granted"] > 0 and ooh["pages_forwarded"] == 0
    assert baseline["pages_forwarded"] > 0 and baseline["pages_granted"] == 0
    assert ooh["dirty_tracking_cycles"] < baseline["dirty_tracking_cycles"]
    # The migration itself is identical — only tracking pricing differs.
    assert ooh["fabric_migration_bytes"] == baseline["fabric_migration_bytes"]


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def test_report_ranks_and_renders():
    result = run_study(TRIMMED, seed=3, jobs=1)
    rankings = scenario_rankings(result)
    ranked = rankings["micro/kvm/DevNotify"]
    assert [v for v, _ in ranked] == ["baseline", "ooh"] or [
        v for v, _ in ranked
    ] == ["ooh", "baseline"]
    text = render_study(result)
    assert result.digest[:16] in text
    assert "DevNotify" in text
    assert "headline" in text
