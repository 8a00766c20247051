"""``Simulator.run_ahead_limit``: the one bound on every run-ahead shortcut.

The predicate's cases on a bare simulator, then the boundary check for
each shortcut: a limit one cycle late fails the shared shipped-vs-stepped
differential (``tests/stepped.py``) on that shortcut's tie cell.
"""

import pytest

from repro.hw.machine import Machine
from repro.sim.engine import Simulator
from tests.cluster.test_fabric import hop_tie_cell
from tests.core.test_dirtier_runahead import dirtier_tie_cell
from tests.hv.test_exit_batching import vmread_tie_cell
from tests.stepped import shipped_and_stepped


def _limit_inside_run(sim, until=None, max_events=None, **kwargs):
    """The limit a process running at cycle 10 of ``sim.run`` reads."""
    seen = []

    def proc():
        yield 10
        seen.append(sim.run_ahead_limit(**kwargs))

    sim.spawn(proc())
    sim.run(until=until, max_events=max_events)
    return seen[0]


def test_unbounded_without_other_work():
    assert _limit_inside_run(Simulator(fast_forward=True)) is None


def test_the_run_until_bounds_it():
    assert _limit_inside_run(Simulator(fast_forward=True), until=50) == 50


def test_strictly_before_the_next_heap_entry():
    sim = Simulator(fast_forward=True)
    sim.call_at(40, lambda: None)
    assert _limit_inside_run(sim, until=100) == 39
    sim = Simulator(fast_forward=True)
    sim.call_at(40, lambda: None)
    assert _limit_inside_run(sim, until=100, queued=False) == 100


def test_ready_work_allows_nothing():
    sim = Simulator(fast_forward=True)
    seen = []

    def other():
        yield 1

    def proc():
        yield 10
        sim.spawn(other())
        seen.append((sim.run_ahead_limit(), sim.run_ahead_limit(queued=False)))

    sim.spawn(proc())
    sim.run()
    assert seen == [(9, None)]


@pytest.mark.parametrize(
    "sim, run_kwargs",
    [
        (lambda: Simulator(fast_forward=False), {}),
        (lambda: Simulator(fast_forward=True), {"max_events": 1_000}),
    ],
    ids=["fast-forward-off", "max-events"],
)
def test_switch_and_budget_allow_nothing(sim, run_kwargs):
    assert _limit_inside_run(sim(), **run_kwargs) == 9
    assert _limit_inside_run(sim(), queued=False, **run_kwargs) == 9


def test_an_observer_allows_nothing():
    machine = Machine(sim=Simulator(fast_forward=True))
    assert _limit_inside_run(machine.sim, machine=machine, queued=False) is None
    machine = Machine(sim=Simulator(fast_forward=True))
    machine.enable_span_tracing()
    assert _limit_inside_run(machine.sim, machine=machine, queued=False) == 9


@pytest.mark.parametrize(
    "cell",
    [vmread_tie_cell, dirtier_tie_cell, hop_tie_cell],
    ids=["l0-batch", "dirtier", "fabric-hop"],
)
def test_limit_one_cycle_late_fails_the_tie_cell(monkeypatch, cell):
    """Mutation check: each shortcut's tie cell passes the differential,
    and fails it once the limit (with fast-forward on) is one cycle
    later."""
    shipped, stepped, _ = shipped_and_stepped(monkeypatch, cell)
    assert shipped == stepped
    limit = Simulator.run_ahead_limit

    def one_cycle_late(self, machine=None, queued=True):
        last = limit(self, machine, queued)
        return last + 1 if last is not None and self.ff.enabled else last

    monkeypatch.setattr(Simulator, "run_ahead_limit", one_cycle_late)
    shipped, stepped, _ = shipped_and_stepped(monkeypatch, cell)
    assert shipped != stepped
