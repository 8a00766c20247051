"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_micro_command(capsys):
    assert main(["micro", "Hypercall", "--levels", "1", "--iterations", "5"]) == 0
    out = capsys.readouterr().out
    assert "Hypercall" in out and "cycles/op" in out


def test_micro_dvh_preset(capsys):
    assert main(["micro", "ProgramTimer", "--levels", "2", "--dvh", "full",
                 "--iterations", "5"]) == 0
    out = capsys.readouterr().out
    # DVH virtual timer: a few thousand cycles, not tens of thousands.
    value = int(out.split(":")[1].split("cycles")[0].strip().replace(",", ""))
    assert value < 10_000


def test_app_command_with_report(capsys):
    assert main(
        ["app", "hackbench", "--levels", "0", "--scale", "0.1", "--report"]
    ) == 0
    out = capsys.readouterr().out
    assert "hackbench" in out
    assert "Cycle attribution" in out


def test_micro_slo_prints_latency_table(capsys):
    assert main(["micro", "Hypercall", "--levels", "1", "--iterations", "5",
                 "--slo"]) == 0
    out = capsys.readouterr().out
    assert "Request latency" in out
    assert "p99 cy" in out


def test_app_slo_prints_latency_table(capsys):
    assert main(["app", "netperf_rr", "--levels", "0", "--scale", "0.1",
                 "--slo"]) == 0
    out = capsys.readouterr().out
    assert "Request latency" in out
    assert "netperf_rr" in out


def test_app_poisson_arrival(capsys):
    assert main(["app", "netperf_rr", "--levels", "0", "--scale", "0.1",
                 "--arrival", "poisson", "--offered", "30000"]) == 0
    out = capsys.readouterr().out
    assert "arrival=poisson" in out


def test_app_poisson_needs_offered_rate(capsys):
    assert main(["app", "netperf_rr", "--levels", "0", "--scale", "0.1",
                 "--arrival", "poisson"]) == 1
    assert "offered_tps" in capsys.readouterr().out


def test_app_arrival_rejected_for_non_rr(capsys):
    assert main(["app", "hackbench", "--levels", "0", "--scale", "0.1",
                 "--arrival", "poisson", "--offered", "100"]) == 1
    assert "no arrival process" in capsys.readouterr().out


def test_app_io_default_follows_dvh():
    parser = build_parser()
    from repro.cli import _stack_config

    args = parser.parse_args(["app", "memcached", "--levels", "2", "--dvh", "full"])
    assert _stack_config(args).io_model == "vp"
    args = parser.parse_args(["app", "memcached", "--levels", "2"])
    assert _stack_config(args).io_model == "virtio"
    args = parser.parse_args(["app", "memcached", "--levels", "0"])
    assert _stack_config(args).io_model == "native"


@pytest.mark.parametrize("command", ["cluster", "slo"])
def test_retired_commands_are_invalid_choices(command, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_every_leaf_names_its_runner():
    for argv in LEAF_COMMANDS:
        assert callable(build_parser().parse_args(argv).run), argv


def test_reader_closing_the_pipe_early_is_not_an_error():
    """`repro ... | head` must end quietly: no BrokenPipeError
    traceback on stderr once the reader stops reading."""
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "dc", "run", "--spec", "slo"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert stderr == b""


def test_figure_rejects_unknown_number():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "12"])


def test_xen_flag(capsys):
    assert main(
        ["micro", "Hypercall", "--levels", "2", "--guest-hv", "xen",
         "--iterations", "5"]
    ) == 0
    out = capsys.readouterr().out
    value = int(out.split(":")[1].split("cycles")[0].strip().replace(",", ""))
    assert value > 45_000  # Xen guest hypervisor costs more than KVM's ~38K


def test_figure_command_chart(capsys):
    assert main(
        ["figure", "7", "--apps", "hackbench", "--scale", "0.1", "--chart"]
    ) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "|" in out and "#" in out  # bars


def test_figure_command_table(capsys):
    assert main(["figure", "8", "--apps", "hackbench", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "+ virtual idle (= DVH)" in out


def test_migration_command(capsys):
    assert main(["migration"]) == 0
    out = capsys.readouterr().out
    assert "MIGRATION NOT SUPPORTED" in out


@pytest.mark.parametrize("audit", [False, True])
def test_migration_json_is_rows_and_audit(capsys, audit):
    import json

    argv = ["migration", "--json"] + (["--audit"] if audit else [])
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"rows", "audit"}
    assert [r["supported"] for r in data["rows"]] == [True] * 4 + [False]
    assert data["rows"][-1]["scenario"] == "nested VM (passthrough)"
    assert set(data["rows"][0]) == {
        "scenario", "supported", "total_s", "downtime_s", "bytes_transferred",
    }
    if audit:
        assert data["audit"]["ok"] is True and data["audit"]["checks_run"] > 0
    else:
        assert data["audit"] is None


def test_analyze_command(capsys):
    assert main(["analyze", "hackbench", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "— forwarded" in out


# ----------------------------------------------------------------------
# Flag parity: every leaf takes --seed, --no-fast-forward and --json;
# --jobs and --audit only where its runner reads them
# ----------------------------------------------------------------------
#: Minimal valid argv for every leaf subcommand the parser defines.
LEAF_COMMANDS = [
    ["table3"],
    ["figure", "7"],
    ["migration"],
    ["micro", "Hypercall"],
    ["trace"],
    ["analyze", "hackbench"],
    ["app", "hackbench"],
    ["faults", "fuzz"],
    ["faults", "plan"],
    ["dc", "demo"],
    ["dc", "run"],
    ["dc", "sweep"],
    ["dc", "validate"],
    ["study"],
    ["audit"],
    ["scenarios", "gen"],
    ["scenarios", "run"],
    ["scenarios", "shrink"],
]

#: The optional run flags each leaf accepts (keyed by its argv).
LEAF_FLAGS = {
    "table3": {"--jobs"},
    "figure-7": {"--jobs"},
    "migration": {"--audit"},
    "micro-Hypercall": {"--audit"},
    "trace": set(),
    "analyze-hackbench": set(),
    "app-hackbench": {"--audit"},
    "faults-fuzz": {"--jobs", "--audit"},
    "faults-plan": {"--audit"},
    "dc-demo": set(),
    "dc-run": set(),
    "dc-sweep": {"--jobs"},
    "dc-validate": set(),
    "study": {"--jobs"},
    "audit": set(),
    "scenarios-gen": set(),
    "scenarios-run": {"--jobs", "--audit"},
    "scenarios-shrink": set(),
}

FLAG_ARGV = {"--jobs": ["--jobs=3"], "--audit": ["--audit"]}


def _parse_exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    return exc.value.code


@pytest.mark.parametrize("argv", LEAF_COMMANDS, ids=lambda a: "-".join(a))
def test_flag_parity_on_every_subcommand(argv, capsys):
    accepted = LEAF_FLAGS["-".join(argv)]
    extra = [word for flag in sorted(accepted) for word in FLAG_ARGV[flag]]
    args = build_parser().parse_args(
        argv + ["--seed", "7", "--no-fast-forward", "--json"] + extra
    )
    assert args.seed == 7
    assert args.no_fast_forward is True
    assert args.json is True
    assert getattr(args, "jobs", None) == (3 if "--jobs" in accepted else None)
    assert getattr(args, "audit", None) == (True if "--audit" in accepted else None)
    for flag in sorted(set(FLAG_ARGV) - accepted):
        assert _parse_exit_code(argv + FLAG_ARGV[flag]) == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err


#: Each leaf's text-only rendering flag; --json drops the text.
TEXT_ONLY_FLAGS = [
    (["figure", "7"], "--chart"),
    (["trace"], "--chains"),
    (["app", "hackbench"], "--report"),
    (["faults", "fuzz"], "--verbose"),
    (["faults", "plan"], "--report"),
    (["audit"], "--verbose"),
]


@pytest.mark.parametrize(
    "argv, flag", TEXT_ONLY_FLAGS, ids=lambda v: "-".join(v) if isinstance(v, list) else v
)
def test_text_only_flag_with_json_is_a_parse_error(argv, flag, capsys):
    assert _parse_exit_code(argv + ["--json", flag]) == 2
    assert "not allowed with argument --json" in capsys.readouterr().err
    build_parser().parse_args(argv + [flag])  # fine on its own


#: A small run of every leaf, for the one-JSON-document check.
SMALL_ARGV = {
    "table3": ["table3"],
    "figure-7": ["figure", "7", "--apps", "netperf_rr", "--scale", "0.1"],
    "migration": ["migration"],
    "micro-Hypercall": ["micro", "Hypercall", "--iterations", "5", "--slo"],
    "trace": ["trace", "--iterations", "1"],
    "analyze-hackbench": ["analyze", "hackbench", "--scale", "0.1"],
    "app-hackbench": ["app", "netperf_rr", "--levels", "0", "--scale", "0.1", "--slo"],
    "faults-fuzz": ["faults", "fuzz", "--episodes", "2"],
    "faults-plan": ["faults", "plan"],
    "dc-demo": ["dc", "demo"],
    "dc-run": ["dc", "run"],
    "dc-sweep": ["dc", "sweep", "--seeds", "1"],
    "dc-validate": ["dc", "validate"],
    "study": ["study", "--spec", os.path.join(EXAMPLES, "study_smoke.json")],
    "audit": ["audit", "--episodes", "0"],
    "scenarios-gen": ["scenarios", "gen", "--count", "2"],
    "scenarios-run": ["scenarios", "run", "--count", "2"],
    "scenarios-shrink": ["scenarios", "shrink", "--count", "1"],
}


@pytest.mark.parametrize("argv", LEAF_COMMANDS, ids=lambda a: "-".join(a))
def test_json_prints_one_document(argv, capsys):
    key = "-".join(argv)
    assert main(SMALL_ARGV[key] + ["--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    if key in ("micro-Hypercall", "app-hackbench"):
        (row,) = data["latency"].values()
        assert row["samples"] > 0 and row["p99_cycles"] >= row["p50_cycles"]
    if key == "analyze-hackbench":
        assert all(isinstance(k, str) for r in data["rows"]
                   for k in r["interrupts_per_txn"])


# ----------------------------------------------------------------------
# Counts are checked when the command line is parsed
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv",
    [
        ["scenarios", "run", "--count", "0"],
        ["micro", "Hypercall", "--iterations", "0"],
        ["trace", "--iterations", "0"],
        ["dc", "sweep", "--seeds", "0"],
        ["faults", "fuzz", "--episodes", "-1"],
        ["audit", "--episodes", "-1"],
        ["table3", "--jobs", "-2"],
        ["faults", "fuzz", "--replay-every", "-1"],
        ["trace", "--sites", "-2"],
        ["micro", "Hypercall", "--iterations", "x"],
    ],
    ids=lambda a: "-".join(a),
)
def test_count_below_its_bound_is_a_parse_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be >=" in err or "invalid int value" in err


@pytest.mark.parametrize("index", ["5", "2", "-1"])
def test_shrink_index_outside_count_exits_1(index, capsys):
    assert main(["scenarios", "shrink", "--count", "2", "--index", index]) == 1
    assert capsys.readouterr().out == f"error: --index {index} is outside [0, 2)\n"


@pytest.mark.parametrize("argv", LEAF_COMMANDS, ids=lambda a: "-".join(a))
def test_pre_subcommand_seed_survives(argv):
    """SUPPRESS defaults: `repro --seed 9 <cmd>` keeps seed 9 even
    though the subcommand defines its own --seed."""
    args = build_parser().parse_args(["--seed", "9"] + argv)
    assert args.seed == 9
    assert args.no_fast_forward is False


def test_study_command_renders_report(capsys):
    import json as json_mod

    spec = {
        "name": "cli-trim",
        "variants": ["baseline", "dvh"],
        "micro_benches": ["Hypercall"],
        "micro_guest_hvs": ["kvm"],
        "micro_iterations": 3,
        "app_names": [],
        "migration": False,
        "cluster_hosts": 0,
    }
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json_mod.dump(spec, fh)
        path = fh.name
    assert main(["study", "--spec", path]) == 0
    out = capsys.readouterr().out
    assert "head-to-head study 'cli-trim'" in out
    assert "Hypercall" in out
    assert main(["study", "--spec", path, "--json"]) == 0
    data = json_mod.loads(capsys.readouterr().out)
    assert data["spec"] == "cli-trim"
    assert len(data["rows"]) == 2


def test_study_command_rejects_bad_spec(capsys):
    assert main(["study", "--spec", "/nonexistent/spec.json"]) == 1
    assert "spec error" in capsys.readouterr().out


def test_scenarios_run_default_jobs_is_serial(monkeypatch, capsys):
    """`--jobs 1` (the default) must take the serial path even on a
    multi-CPU host: no worker pool may be created."""
    import json as json_mod

    def no_pool(*args, **kwargs):
        raise AssertionError("--jobs 1 started a worker pool")

    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    assert main(["scenarios", "run", "--count", "2", "--seed", "1", "--json"]) == 0
    rows = json_mod.loads(capsys.readouterr().out)
    assert [r["index"] for r in rows] == [0, 1]
