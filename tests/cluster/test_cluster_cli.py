"""The ``python -m repro cluster`` subcommands."""

import json

import pytest

from repro.cli import build_parser, main


def test_cluster_requires_mode():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["cluster"])


def test_cluster_migrate_vp(capsys):
    assert main(["cluster", "migrate", "--io", "vp"]) == 0
    out = capsys.readouterr().out
    assert "migrated tenant0 (vp)" in out
    assert "downtime" in out
    assert "fabric migration bytes" in out


def test_cluster_migrate_passthrough_refused(capsys):
    assert main(["cluster", "migrate", "--io", "passthrough"]) == 1
    out = capsys.readouterr().out
    assert "hardware-coupled" in out


def test_cluster_migrate_json(capsys):
    assert main(["cluster", "migrate", "--io", "vp", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["migrations"][0]["outcome"] == "ok"
    assert summary["fabric"]["migration_bytes"] > 0
    assert "digest" in summary


def test_cluster_migrate_refused_json(capsys):
    """--json prints the summary even when the migration is refused;
    the refused record is in it and the exit status stays 1."""
    assert main(["cluster", "migrate", "--io", "passthrough", "--json"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["migrations"][0]["outcome"] == "unsupported"
    assert summary["migrations"][0]["downtime_ms"] is None
    assert "audit" not in summary


def test_cluster_migrate_refused_json_audited(capsys):
    assert main(
        ["cluster", "migrate", "--io", "passthrough", "--json", "--audit"]
    ) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["migrations"][0]["outcome"] == "unsupported"
    assert summary["audit"]["ok"] is True
    assert summary["audit"]["checks_run"] > 0


def test_cluster_demo(capsys):
    assert main(
        ["cluster", "demo", "--hosts", "2", "--tenants", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert "cluster up hosts=2" in out
    assert "migrations:" in out


def test_cluster_demo_seed_threads_through(capsys):
    """--seed before or after the subcommand, same bytes out."""
    assert main(["--seed", "9", "cluster", "demo", "--hosts", "2",
                 "--tenants", "3", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["cluster", "demo", "--hosts", "2", "--tenants", "3",
                 "--seed", "9", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["seed"] == 9


def test_cluster_demo_with_fabric_faults(capsys):
    assert main(
        ["cluster", "demo", "--hosts", "2", "--tenants", "3",
         "--faults", "fabric_degrade", "--json", "--seed", "2"]
    ) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["fabric"]["migration_bytes"] > 0


def test_cluster_sweep(capsys):
    assert main(["cluster", "sweep", "--tenants", "3"]) == 0
    out = capsys.readouterr().out
    assert "bin-pack" in out and "spread" in out and "load-balance" in out


def test_cluster_sweep_json_serial_vs_jobs_identical(capsys):
    assert main(["cluster", "sweep", "--tenants", "3", "--json",
                 "--seed", "4"]) == 0
    serial = capsys.readouterr().out
    assert main(["cluster", "sweep", "--tenants", "3", "--json",
                 "--seed", "4", "--jobs", "4"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel
    rows = json.loads(serial)
    assert len(rows) == 6  # 3 policies x 2 host counts
