"""The ``python -m repro dc`` subcommands."""

import json
import os

import pytest

from repro.cli import build_parser, main

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def test_dc_requires_mode():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["dc"])


def test_dc_demo(capsys):
    assert main(["dc", "demo", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "dc up" in out
    assert "wave 0 start" in out
    assert "pinned per wave" in out
    assert "trunk bytes" in out


def test_dc_demo_json_is_reproducible(capsys):
    assert main(["dc", "demo", "--seed", "1", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["dc", "demo", "--seed", "1", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    summary = json.loads(first)
    assert summary["control"]["admitted"] == 8
    assert summary["hosts_total"] == 6


def test_dc_no_quiescent_same_json_observables(capsys):
    assert main(["dc", "demo", "--seed", "1", "--json"]) == 0
    lazy = json.loads(capsys.readouterr().out)
    assert main(["dc", "demo", "--seed", "1", "--no-quiescent", "--json"]) == 0
    eager = json.loads(capsys.readouterr().out)
    assert lazy["digest"] == eager["digest"]
    assert lazy["hosts_booted"] < eager["hosts_total"]
    assert eager["hosts_booted"] == eager["hosts_total"]


def test_dc_validate_builtin_and_file(capsys):
    assert main(["dc", "validate", "--spec", "small"]) == 0
    assert "small v1" in capsys.readouterr().out
    path = os.path.join(EXAMPLES, "dc_small.json")
    assert main(["dc", "validate", "--spec", path]) == 0
    assert "small-file v1" in capsys.readouterr().out


def test_dc_run_spec_file(capsys):
    path = os.path.join(EXAMPLES, "dc_small.json")
    assert main(["dc", "run", "--spec", path, "--seed", "2", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["spec"] == "small-file"
    assert summary["control"]["upgraded_total"] > 0


def test_dc_unknown_spec_is_an_error(capsys):
    assert main(["dc", "run", "--spec", "no-such-spec"]) == 1
    assert "spec error" in capsys.readouterr().out


def test_dc_bad_spec_file_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"topology": {"rackz": 2}}')
    assert main(["dc", "validate", "--spec", str(bad)]) == 1
    assert "unknown key" in capsys.readouterr().out


def test_dc_sweep_table_and_json(capsys):
    assert main(["dc", "sweep", "--seeds", "2", "--jobs", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["seed"] for r in rows] == [0, 1]
    assert all(len(r["digest"]) == 64 for r in rows)
    assert main(["dc", "sweep", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "digest" in out and "pinned/wave" in out


def test_dc_seed_before_subcommand_threads_through(capsys):
    assert main(["--seed", "1", "dc", "demo", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["dc", "demo", "--seed", "1", "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
