"""The SLO-gated control plane: telemetry, gate decisions, percentiles.

One run of the built-in "slo" study is shared across tests (it is pure
per (spec, seed)); determinism tests rebuild their own.
"""

import json

import pytest

from repro.cli import main
from repro.cluster.host import TENANT_PASSTHROUGH, TENANT_VIRTIO, TENANT_VP
from repro.dc import load_spec, run_dc

SLO = load_spec("slo")


@pytest.fixture(scope="module")
def study():
    return run_dc(SLO, seed=0)


def test_telemetry_samples_every_tenant(study):
    control = study.control
    assert control.slo_ticks > 0
    assert control.slo_samples > 0
    series = study.fabric.metrics.latency_series()
    assert set(series) == set(study.tenants())


def test_gate_migrates_worst_breacher(study):
    control = study.control
    assert control.slo_breaches > 0
    migrated = [r for r in control.slo_reports if r.action == "migrate"]
    assert migrated and control.slo_migrations == len(
        [r for r in migrated if r.outcome == "ok"]
    ) > 0
    for r in migrated:
        assert r.p99_cycles > r.objective_cycles
        assert r.dst and r.dst != r.host
    assert any("slo" in line and "migrate" in line for line in study.events)


def test_breaching_passthrough_is_pinned_not_migrated(study):
    reports = study.control.slo_reports
    pt = [r for r in reports if r.io_model == TENANT_PASSTHROUGH]
    assert pt, "study must produce passthrough breach reports"
    assert {r.action for r in pt} == {"pinned"}  # never migrated (§3.6)


def test_percentile_table_orders_io_models(study):
    """The headline: virtio tail > vp (DVH) tail > passthrough tail."""
    table = study.control.tenant_percentiles()
    assert set(table) == set(study.tenants())
    by_model = {}
    for row in table.values():
        by_model.setdefault(row["io_model"], []).append(row["p99_cycles"])
    assert min(by_model[TENANT_VIRTIO]) > max(by_model[TENANT_VP]) or sorted(
        by_model[TENANT_VIRTIO]
    )[len(by_model[TENANT_VIRTIO]) // 2] > max(by_model[TENANT_VP])
    assert min(by_model[TENANT_VP]) > max(by_model[TENANT_PASSTHROUGH])
    for row in table.values():
        assert row["p50_cycles"] <= row["p99_cycles"] <= row["p999_cycles"]
        assert row["objective_cycles"] > 0 and row["samples"] > 0


def test_summary_carries_slo_sections(study):
    summary = study.summary()
    slo = summary["control"]["slo"]
    assert slo["breaches"] == study.control.slo_breaches
    assert len(slo["reports"]) == len(study.control.slo_reports)
    assert summary["tenant_percentiles"]
    json.dumps(summary)  # JSON-friendly end to end


def test_slo_study_deterministic_across_fast_forward(study, monkeypatch):
    monkeypatch.setenv("REPRO_FAST_FORWARD", "0")
    again = run_dc(load_spec("slo"), seed=0)
    assert again.digest() == study.digest()
    assert [r.as_dict() for r in again.control.slo_reports] == [
        r.as_dict() for r in study.control.slo_reports
    ]
    assert again.control.tenant_percentiles() == study.control.tenant_percentiles()


def test_different_seed_different_decisions(study):
    other = run_dc(load_spec("slo"), seed=5)
    assert other.digest() != study.digest()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_slo_renders_study(capsys):
    assert main(["dc", "run", "--spec", "slo"]) == 0
    out = capsys.readouterr().out
    assert "slo gate:" in out
    assert "tenant percentiles" in out
    # the gate's decision counts, per (io_model, action)
    assert "  passthrough  pinned     x" in out
    assert "  virtio       migrate    x" in out


def test_cli_slo_json_reproducible(capsys):
    assert main(["dc", "run", "--spec", "slo", "--seed", "2", "--json"]) == 0
    a = capsys.readouterr().out
    assert main(["--seed", "2", "dc", "run", "--spec", "slo", "--json"]) == 0
    b = capsys.readouterr().out
    assert a == b
    doc = json.loads(a)
    assert doc["control"]["slo"]["samples"] > 0


def test_cli_dc_run_slo_flag_force_enables(capsys):
    assert main(["dc", "run", "--spec", "small", "--slo", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "slo gate:" in out
    assert "tenant percentiles" in out


def test_cli_dc_sweep_slo_flag_reaches_cells(capsys):
    """``dc sweep --slo`` runs the SLO-enabled spec in every cell: the
    row's digest is that of a direct run of the same spec and seed."""
    from dataclasses import replace

    small = load_spec("small")
    with_slo = replace(small, slo=replace(small.slo, enabled=True))
    assert main(["dc", "sweep", "--spec", "small", "--seeds", "1", "--slo",
                 "--json"]) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["digest"] == run_dc(with_slo, seed=0).digest()
    assert row["digest"] != run_dc(small, seed=0).digest()
