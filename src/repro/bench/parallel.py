"""Process-parallel execution of independent experiment cells.

Every (configuration, workload) cell of an experiment builds its own
stack and its own simulator, so cells share no state and can run in
separate worker processes.  Determinism is preserved because each cell
is a pure function of its parameters (the simulators are seeded) and
results are assembled in task order: a parallel run produces exactly
the bytes a serial run does, just faster.

Configuration factories close over their keyword arguments and are not
picklable, so workers receive *names* — the key of a registered config
set (:data:`repro.bench.configs.CONFIG_SETS`) plus an index into it —
and rebuild the configuration in the child process.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = ["map_cells", "resolve_jobs", "table3_cell", "app_cell"]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 mean one worker per CPU."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return int(jobs)


def map_cells(
    worker: Callable[[Any], Any], tasks: Sequence[Any], jobs: Optional[int]
) -> List[Any]:
    """Apply ``worker`` to every task, in order.

    Runs up to ``jobs`` worker processes; with one job (or one task, or
    in environments where subprocesses or pickling fail) it degrades to
    a plain serial loop, which produces identical results.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    n = min(resolve_jobs(jobs), len(tasks))
    if n <= 1:
        return [worker(t) for t in tasks]
    try:
        # Imported here, not at module load: the pool machinery costs
        # every process a few MB of memory, and only ``jobs > 1`` uses it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n) as ex:
            return list(ex.map(worker, tasks))
    except (
        ImportError,
        OSError,
        NotImplementedError,
        pickle.PicklingError,
        AttributeError,
    ):
        # No subprocess support (sandboxes) or an unpicklable task or
        # worker: the serial path computes the same results.
        return [worker(t) for t in tasks]


# ----------------------------------------------------------------------
# Cell workers (module-level so they pickle under the spawn start method)
# ----------------------------------------------------------------------
def table3_cell(task: Tuple[str, int, int, int]) -> float:
    """One Table-3 cell: (bench, config index, iterations, seed) -> cycles."""
    bench, config_index, iterations, seed = task
    from dataclasses import replace

    from repro.bench.configs import TABLE3_CONFIGS
    from repro.hv.stack import build_stack
    from repro.workloads.microbench import run_microbenchmark

    _name, factory = TABLE3_CONFIGS[config_index]
    stack = build_stack(replace(factory(), seed=seed))
    return run_microbenchmark(stack, bench, iterations)


def app_cell(task: Tuple[str, int, str, float, int]):
    """One application-figure cell:
    (config-set key, config index, app, scale, seed) -> AppResult."""
    configs_key, config_index, app, scale, seed = task
    from dataclasses import replace

    from repro.bench.configs import CONFIG_SETS
    from repro.hv.stack import build_stack
    from repro.workloads.apps import run_app

    _name, factory = CONFIG_SETS[configs_key][config_index]
    return run_app(build_stack(replace(factory(), seed=seed)), app, scale=scale)
