"""Experiment runners: regenerate every table and figure of the paper.

Each function runs the full set of configurations for one experiment and
returns structured results; :mod:`repro.bench.tables` renders them in the
paper's row/series format.  Everything is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.features import DvhFeatures
from repro.core.migration import LiveMigration, MigrationNotSupported
from repro.hv.stack import StackConfig, build_stack
from repro.workloads.apps import app_names
from repro.workloads.engines import AppResult
from repro.workloads.microbench import MICROBENCHMARKS
from repro.bench.configs import FIGURES, TABLE3_CONFIGS
from repro.bench.parallel import app_cell, map_cells, table3_cell

__all__ = [
    "Table3Result",
    "FigureResult",
    "MigrationRow",
    "run_table3",
    "run_figure",
    "run_migration_experiment",
    "DEFAULT_SCALES",
]

#: Per-configuration transaction-count scaling.  Deterministic simulation
#: converges in a handful of transactions; deep-nesting paravirtual
#: configurations simulate fewer to bound wall-clock time.
DEFAULT_SCALES: Dict[int, float] = {0: 0.4, 1: 0.4, 2: 0.4, 3: 0.15}


@dataclass
class Table3Result:
    """Microbenchmark cycles per configuration (the paper's Table 3)."""

    #: bench name -> config name -> cycles.
    cells: Dict[str, Dict[str, float]] = field(default_factory=dict)
    configs: List[str] = field(default_factory=list)


@dataclass
class FigureResult:
    """One application figure: overheads relative to native."""

    title: str
    #: app -> config -> overhead (1.0 = native speed).
    overheads: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: app -> native absolute value.
    native: Dict[str, AppResult] = field(default_factory=dict)
    configs: List[str] = field(default_factory=list)


@dataclass
class MigrationRow:
    scenario: str
    supported: bool
    total_s: float = 0.0
    downtime_s: float = 0.0
    bytes_transferred: int = 0


# ----------------------------------------------------------------------
def _seeded(
    configs: List[Tuple[str, Callable[[], StackConfig]]], seed: int
) -> List[Tuple[str, StackConfig]]:
    """Call each factory once; every cell of that column reuses the
    (frozen) config, and the cell tasks carry it to their workers."""
    return [(name, replace(factory(), seed=seed)) for name, factory in configs]


def run_table3(
    iterations: int = 30,
    benches: Optional[List[str]] = None,
    jobs: int = 1,
    seed: int = 0,
) -> Table3Result:
    """Regenerate Table 3: microbenchmark cycle costs.

    ``jobs`` fans the (bench, config) cells over worker processes
    (0 = one per CPU); results are identical to a serial run.  ``seed``
    reseeds every cell's stack (same seed, same table).
    """
    benches = list(benches) if benches is not None else list(MICROBENCHMARKS)
    built = _seeded(TABLE3_CONFIGS, seed)
    tasks = [(config, bench, iterations) for bench in benches for _n, config in built]
    values = iter(map_cells(table3_cell, tasks, jobs))
    result = Table3Result(configs=[name for name, _ in built])
    for bench in benches:
        result.cells[bench] = {name: next(values) for name, _ in built}
    return result


# ----------------------------------------------------------------------
def run_figure(
    which: str, apps=None, scales=None, jobs: int = 1, seed: int = 0,
) -> FigureResult:
    """One application figure by number (a key of
    :data:`~repro.bench.configs.FIGURES`); ``jobs`` and ``seed`` as for
    :func:`run_table3`."""
    try:
        title, configs = FIGURES[str(which)]
    except KeyError:
        raise ValueError(f"no such figure: {which}") from None
    scales = scales or DEFAULT_SCALES
    apps = list(apps) if apps is not None else app_names()
    built = _seeded(configs, seed)
    # One uniform scale per figure (the smallest across its levels), so
    # elapsed-time workloads compare equal transaction counts and warmup
    # edge effects cancel in the overhead ratio.
    uniform_scale = min(scales.get(config.levels, 0.3) for _name, config in built)
    tasks = [(config, app, uniform_scale) for app in apps for _n, config in built]
    it = iter(map_cells(app_cell, tasks, jobs))
    result = FigureResult(title=title, configs=[n for n, _ in built if n != "native"])
    for app in apps:
        native_result: Optional[AppResult] = None
        row: Dict[str, float] = {}
        for config_name, _config in built:
            r = next(it)
            if config_name == "native":
                native_result = r
                continue
            assert native_result is not None, "native must come first"
            row[config_name] = r.overhead_vs(native_result)
        result.overheads[app] = row
        if native_result is not None:
            result.native[app] = native_result
    return result


# ----------------------------------------------------------------------
def run_migration_experiment(seed: int = 0, audit=None) -> List[MigrationRow]:
    """The §4 migration experiment: migrate VMs and nested VMs using
    paravirtual I/O vs DVH; passthrough cannot migrate at all.

    ``audit`` optionally takes a :class:`repro.audit.Auditor`, attached
    to every scenario's stack (lifecycle/conservation checks run at the
    caller's ``finish()``); the measured rows are identical either way.
    """
    rows: List[MigrationRow] = []

    def migrate(scenario: str, config: StackConfig, scope: str) -> None:
        stack = build_stack(replace(config, seed=seed))
        stack.settle()
        if audit is not None:
            audit.attach_stack(stack)
        vm = stack.leaf_vm if scope == "nested" else stack.vms[0]
        devices = []
        if scope == "nested" and stack.config.io_model == "vp":
            devices = [stack.net.device]
        try:
            mig = LiveMigration(stack.machine, vm, devices=devices)
            res = stack.sim.run_process(mig.run(), f"migrate-{scenario}")
        except MigrationNotSupported:
            rows.append(MigrationRow(scenario=scenario, supported=False))
            return
        rows.append(
            MigrationRow(
                scenario=scenario,
                supported=True,
                total_s=res.total_s,
                downtime_s=res.downtime_s,
                bytes_transferred=res.bytes_transferred,
            )
        )

    migrate("VM (paravirtual I/O)", StackConfig(levels=1, io_model="virtio"), "nested")
    migrate(
        "nested VM alone (paravirtual I/O)",
        StackConfig(levels=2, io_model="virtio"),
        "nested",
    )
    migrate(
        "nested VM alone (DVH)",
        StackConfig(levels=2, io_model="vp", dvh=DvhFeatures.full()),
        "nested",
    )
    migrate(
        "nested VM + guest hypervisor (DVH)",
        StackConfig(levels=2, io_model="vp", dvh=DvhFeatures.full()),
        "l1",
    )
    migrate(
        "nested VM (passthrough)",
        StackConfig(levels=2, io_model="passthrough"),
        "nested",
    )
    return rows
