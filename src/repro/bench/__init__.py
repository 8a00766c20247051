"""Benchmark harness: regenerate every table and figure of the paper."""

from repro.bench.configs import (
    FIG7_CONFIGS,
    FIG8_CONFIGS,
    FIG9_CONFIGS,
    FIG10_CONFIGS,
    TABLE3_CONFIGS,
)
from repro.bench.runner import (
    DEFAULT_SCALES,
    FigureResult,
    MigrationRow,
    Table3Result,
    run_figure,
    run_migration_experiment,
    run_table3,
)
from repro.bench.tables import (
    PAPER_TABLE3,
    format_figure,
    format_migration,
    format_table3,
)

__all__ = [
    "FIG7_CONFIGS",
    "FIG8_CONFIGS",
    "FIG9_CONFIGS",
    "FIG10_CONFIGS",
    "TABLE3_CONFIGS",
    "DEFAULT_SCALES",
    "FigureResult",
    "MigrationRow",
    "Table3Result",
    "run_figure",
    "run_migration_experiment",
    "run_table3",
    "PAPER_TABLE3",
    "format_figure",
    "format_migration",
    "format_table3",
]
