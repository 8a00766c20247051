"""Process-parallel execution of independent experiment cells.

Every (configuration, workload) cell of an experiment builds its own
stack and its own simulator, so cells share no state and can run in
separate worker processes.  Determinism is preserved because each cell
is a pure function of its parameters (the simulators are seeded) and
results are assembled in task order: a parallel run produces exactly
the bytes a serial run does, just faster.

Tasks carry their :class:`~repro.hv.stack.StackConfig` values
themselves (frozen dataclasses, so they pickle and a serial run can
reuse one across cells); ``jobs=1`` is simply the serial loop over the
same tasks, so a parallel run has no second code path to diverge on.
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
def table3_cell(task: Tuple[Any, str, int]) -> float:
    """One Table-3 cell: (StackConfig, bench, iterations) -> cycles."""
    config, bench, iterations = task
    from repro.hv.stack import build_stack
    from repro.workloads.microbench import run_microbenchmark

    return run_microbenchmark(build_stack(config), bench, iterations)


def app_cell(task: Tuple[Any, str, float]):
    """One application-figure cell: (StackConfig, app, scale) -> AppResult."""
    config, app, scale = task
    from repro.hv.stack import build_stack
    from repro.workloads.apps import run_app

    return run_app(build_stack(config), app, scale=scale)
