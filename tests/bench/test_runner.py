"""Tests for the bench harness (runners + formatters)."""

import dataclasses
import json

import pytest

from repro.bench.configs import (
    FIG7_CONFIGS,
    FIG8_CONFIGS,
    FIG9_CONFIGS,
    FIG10_CONFIGS,
    FIGURES,
    TABLE3_CONFIGS,
)
from repro.bench.runner import (
    run_figure,
    run_figure7,
    run_migration_experiment,
    run_table3,
)
from repro.bench.tables import (
    PAPER_TABLE3,
    format_figure,
    format_migration,
    format_table3,
)


def test_config_factories_produce_fresh_configs():
    for name, factory in FIG7_CONFIGS:
        a, b = factory(), factory()
        assert a is not b
        assert a.levels == b.levels


def test_figure_configs_have_native_first():
    for configs in (FIG7_CONFIGS, FIG8_CONFIGS, FIG9_CONFIGS, FIG10_CONFIGS):
        assert configs[0][0] == "native"
        assert configs[0][1]().levels == 0


def test_table3_columns_match_paper():
    names = [n for n, _ in TABLE3_CONFIGS]
    assert names == list(PAPER_TABLE3["Hypercall"].keys())


def test_run_table3_single_bench():
    result = run_table3(iterations=5, benches=["Hypercall"])
    assert set(result.cells) == {"Hypercall"}
    row = result.cells["Hypercall"]
    assert set(row) == set(result.configs)
    text = format_table3(result)
    assert "Hypercall" in text and "(paper)" in text


def test_run_figure_dispatch():
    with pytest.raises(ValueError, match="no such figure"):
        run_figure("11")


def test_run_figure7_single_app():
    result = run_figure7(apps=["hackbench"], scales={0: 0.1, 1: 0.1, 2: 0.1})
    assert set(result.overheads) == {"hackbench"}
    row = result.overheads["hackbench"]
    assert set(row) == set(result.configs)
    assert all(v >= 0.8 for v in row.values())
    text = format_figure(result)
    assert "hackbench" in text
    assert "Native baselines" in text


def test_migration_experiment_rows_and_format():
    rows = run_migration_experiment()
    scenarios = [r.scenario for r in rows]
    assert "nested VM (passthrough)" in scenarios
    text = format_migration(rows)
    assert "MIGRATION NOT SUPPORTED" in text
    supported = [r for r in rows if r.supported]
    assert len(supported) == len(rows) - 1
    assert all(r.total_s > 0 for r in supported)


# ----------------------------------------------------------------------
# Parallel harness
# ----------------------------------------------------------------------
def test_config_sets_registry_covers_every_figure():
    assert set(FIGURES) == {"7", "8", "9", "10"}
    assert FIGURES["7"][1] is FIG7_CONFIGS
    assert FIGURES["10"][1] is FIG10_CONFIGS
    for number, (title, _configs) in FIGURES.items():
        assert title.startswith(f"Figure {number}:")


def _figure_bytes(result) -> bytes:
    """Canonical serialization of a FigureResult for equality checks."""
    payload = {
        "title": result.title,
        "configs": result.configs,
        "overheads": result.overheads,
        "native": {k: dataclasses.asdict(v) for k, v in result.native.items()},
    }
    return json.dumps(payload, sort_keys=True).encode()


def test_figure_parallel_results_byte_identical_to_serial():
    """Same seed, serial vs --jobs N: byte-identical FigureResult."""
    scales = {0: 0.1, 1: 0.1, 2: 0.1}
    serial = run_figure7(apps=["netperf_rr"], scales=scales)
    parallel = run_figure7(apps=["netperf_rr"], scales=scales, jobs=2)
    assert _figure_bytes(parallel) == _figure_bytes(serial)


def test_table3_parallel_results_identical_to_serial():
    serial = run_table3(iterations=3, benches=["Hypercall", "SendIPI"])
    parallel = run_table3(iterations=3, benches=["Hypercall", "SendIPI"], jobs=2)
    assert dataclasses.asdict(parallel) == dataclasses.asdict(serial)
    assert list(parallel.cells) == list(serial.cells)


def test_jobs_zero_means_auto_and_stays_deterministic():
    serial = run_table3(iterations=2, benches=["Hypercall"])
    auto = run_table3(iterations=2, benches=["Hypercall"], jobs=0)
    assert dataclasses.asdict(auto) == dataclasses.asdict(serial)
