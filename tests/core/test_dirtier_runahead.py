"""Dirtier run-ahead: batching changes host work, never simulated state.

``repro.core.migration.dirtier`` applies every burst whose write lands
by ``Simulator.run_ahead_limit`` in one step.  Every case below is a
cell of the shared shipped-vs-stepped differential (``tests/stepped.py``):
with run-ahead, and with fast-forward off, where each burst is stepped
on its own.  Both runs must end in the same simulated state: clock,
migration result, every ``Metrics`` table, the chain-id counter, the
ordered page sets every pre-copy round drained and the pages the tenant
ever touched.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.migration as migration
import repro.hv.stack as stack_mod
from repro.audit import Auditor
from repro.bench.runner import run_migration_experiment
from repro.core.migration import LiveMigration, dirtier
from repro.hv.stack import StackConfig, build_stack
from repro.hw.mem import PAGE_SIZE, DirtyLog, MemorySpace
from repro.study import harness
from tests.stepped import shipped_and_stepped

VARIANTS = ("baseline", "dvh", "ooh", "dvh+ooh")
BASE = 0x2000_0000
COMPUTE = harness._DIRTIER_COMPUTE
PAGES = harness._DIRTIER_PAGES
SPAN = harness._DIRTIER_SPAN
#: Bursts before every window has been written once (no run-ahead yet).
PERIOD = SPAN // PAGES


@pytest.fixture(params=[True, False], ids=["ff", "no-ff"])
def fast_forward(request, monkeypatch):
    """The environment a case starts in, as in CI's two legs; the
    differential sets its own on both sides, so both give one answer."""
    monkeypatch.setenv("REPRO_FAST_FORWARD", "1" if request.param else "0")
    return request.param


def _both(monkeypatch, run):
    """(run-ahead state, stepped state, bursts merged) of ``run()``; each
    state also lists the pages every pre-copy drain returned, in order."""
    drain = migration._drain
    drains = []

    def spy_drain(cpu_log, device_logs):
        drained = drain(cpu_log, device_logs)
        drains.append(list(drained))
        return drained

    def cell():
        drains.clear()
        return run(), list(drains)

    monkeypatch.setattr(migration, "_drain", spy_drain)
    ahead, stepped, skipped = shipped_and_stepped(monkeypatch, cell)
    return ahead, stepped, skipped["dirtier_bursts_merged"]


def _state(stack, result):
    return (
        stack.sim.now,
        result,
        stack.metrics.snapshot(),
        stack.machine._next_chain_id,
        list(stack.leaf_vm.memory.touched_pages),
    )


def _mig_fields(res):
    return (
        res.total_s,
        res.downtime_s,
        res.rounds,
        res.bytes_transferred,
        res.device_state_bytes,
        res.dvh_state_saved,
        res.retries,
    )


def _migrating(config=None, compute=COMPUTE, pages=PAGES, span=SPAN):
    """A settled stack with a live migration of its leaf VM and the study
    dirtier (or one with other windows) running beside it: (stack,
    migration process)."""
    stack = build_stack(config or StackConfig(levels=2, io_model="vp"))
    stack.settle()
    devices = [stack.net.device] if stack.config.io_model == "vp" else []
    mig = LiveMigration(stack.machine, stack.leaf_vm, devices=devices)
    proc = stack.sim.spawn(mig.run(), "migration")
    stack.sim.spawn(
        dirtier(stack.machine, stack.ctx(0), proc, BASE, pages, span, compute),
        "dirtier",
    )
    return stack, proc


@pytest.mark.parametrize("variant", VARIANTS)
def test_study_migration_cell_identical(monkeypatch, fast_forward, variant):
    stacks = []
    build = stack_mod.build_stack

    def spy_build(*args, **kwargs):
        stacks.append(build(*args, **kwargs))
        return stacks[-1]

    monkeypatch.setattr(stack_mod, "build_stack", spy_build)

    def run():
        row = harness._migration_cell(variant, 0)
        return _state(stacks[-1], row)

    ahead, stepped, merged = _both(monkeypatch, run)
    assert ahead == stepped
    assert ahead[0][1]["rounds"] > 1
    assert merged > 0


def test_migration_experiment_identical(monkeypatch, fast_forward):
    ahead, stepped, _ = _both(monkeypatch, lambda: run_migration_experiment(seed=1))
    assert ahead == stepped


def _migration_states(step):
    """The state after every ``step(sim)`` until the migration is done,
    then after a run to the end."""
    stack, proc = _migrating()
    states = []
    while not proc.done:
        step(stack.sim)
        states.append(_state(stack, None))
    stack.sim.run()
    states.append(_state(stack, _mig_fields(proc.result)))
    return states


def test_run_until_stepping_identical(monkeypatch, fast_forward):
    """``run(until=)`` boundaries cut batches short: every boundary shows
    the per-burst state."""
    ahead, stepped, merged = _both(
        monkeypatch,
        lambda: _migration_states(
            lambda sim: sim.run(until=sim.now + 40 * COMPUTE + 12_345)
        ),
    )
    assert ahead == stepped
    _, _, whole = _both(monkeypatch, lambda: _migration_states(lambda sim: sim.run()))
    # Some batches ended at a boundary, and the bursts after it stepped.
    assert 0 < merged < whole


def test_run_max_events_stepping_identical(monkeypatch, fast_forward):
    """No batch runs while a ``max_events`` budget is active: a batch is
    one engine step, and every budgeted return shows the per-burst
    state."""

    def run():
        stack, _proc = _migrating()
        states = []
        work = stack.metrics.cycles["guest_work"]
        for _ in range(3_000):
            stack.sim.run(max_events=97)
            states.append(_state(stack, None))
        bursts = (stack.metrics.cycles["guest_work"] - work) // COMPUTE
        return states, bursts

    ahead, stepped, merged = _both(monkeypatch, run)
    assert ahead == stepped
    assert merged == 0
    # Past the first period, where run-ahead could otherwise start.
    assert ahead[0][1] > PERIOD


def dirtier_tie_cell():
    """A dirtier beside a long sleeper, plus callbacks at exactly the
    cycles of some of its writes (scheduled first, so they run before
    the write at that cycle) that drain a dirty log of their own."""
    stack = build_stack(StackConfig(levels=2))
    stack.settle()
    sim = stack.sim
    log = DirtyLog("tie")
    stack.leaf_vm.memory.attach_dirty_log(log)
    t0 = sim.now
    seen = []

    def tick():
        seen.append((sim.now, list(log.drain())))

    for burst in TIE_TICKS:
        sim.call_at(t0 + burst * COMPUTE, tick)

    def sleeper():
        yield 200 * COMPUTE

    proc = sim.spawn(sleeper(), "sleeper")
    sim.spawn(
        dirtier(stack.machine, stack.ctx(0), proc, BASE, PAGES, SPAN, COMPUTE),
        "dirtier",
    )
    sim.run()
    return _state(stack, seen)


TIE_TICKS = (PERIOD + 24, PERIOD + 25, PERIOD + 60, 150)


def test_tie_with_event_at_a_write_identical(monkeypatch, fast_forward):
    """Another event due at exactly a dirtier write's cycle runs first:
    the batch before it stops strictly short of that cycle."""
    ahead, stepped, merged = _both(monkeypatch, dirtier_tie_cell)
    assert ahead == stepped
    assert merged > 0
    ticks = ahead[0][1]
    assert [when for when, _ in ticks] == [
        ticks[0][0] + (b - TIE_TICKS[0]) * COMPUTE for b in TIE_TICKS
    ]
    # One write since the previous tick, the one at the tick's own cycle
    # still to come.
    assert len(ticks[1][1]) == PAGES


@pytest.mark.parametrize("case", ["float_compute", "float_total"])
def test_float_charges_refuse_runahead(monkeypatch, fast_forward, case):
    """A float cost (the burst's compute, or a ``guest_work`` total made
    float) keeps the order-sensitive per-burst charges."""

    def run():
        config = StackConfig(levels=2, io_model="vp")
        if case == "float_compute":
            stack, proc = _migrating(config, compute=float(COMPUTE) + 0.25)
        else:
            stack, proc = _migrating(config)
            stack.metrics.charge("guest_work", 0.5)
        stack.sim.run()
        return _state(stack, _mig_fields(proc.result))

    ahead, stepped, merged = _both(monkeypatch, run)
    assert ahead == stepped
    assert merged == 0


def test_attached_auditor_refuses_runahead(monkeypatch, fast_forward):
    """An attached auditor sees every burst."""

    def run():
        stack, proc = _migrating()
        auditor = Auditor()
        auditor.attach_stack(stack)
        stack.sim.run()
        report = auditor.finish()
        return _state(stack, (_mig_fields(proc.result), len(report.violations)))

    ahead, stepped, merged = _both(monkeypatch, run)
    assert ahead == stepped
    assert merged == 0


# ----------------------------------------------------------------------
# The batch's union of windows against one write per window
# ----------------------------------------------------------------------
def _windows_written(batched, base, pages, span, first, n):
    """(touched pages, drained log) of a space large enough for every
    window, after bursts ``first`` to ``first + n - 1`` wrote their
    windows in one union batch or one ``write_range`` each."""
    space = MemorySpace(base + (span + pages + 1) * PAGE_SIZE)
    log = DirtyLog()
    space.attach_dirty_log(log)
    if batched:
        space.write_ranges(migration._window_ranges(base, pages, span, first, n))
    else:
        for j in range(first, first + n):
            space.write_range(base + ((j * pages) % span) * PAGE_SIZE, pages * PAGE_SIZE)
    return space.touched_pages, log.drain()


#: (pages, span, first, n): pages dividing span or not, windows running
#: past span, full periods and batches shorter than one.
WINDOW_CASES = [
    (PAGES, SPAN, PERIOD, PERIOD),
    (PAGES, SPAN, PERIOD + 3, 5),
    (3, 10, 0, 10),
    (3, 10, 7, 4),
    (3, 10, 3, 1),
    (4, 10, 2, 5),
    (4, 10, 11, 2),
    (7, 9, 0, 9),
    (6, 9, 1, 2),
    (9, 9, 4, 1),
]


@pytest.mark.parametrize("pages, span, first, n", WINDOW_CASES)
@pytest.mark.parametrize("offset", [0, 123], ids=["aligned", "unaligned"])
def test_window_union_matches_per_window_writes(pages, span, first, n, offset):
    base = BASE + offset
    assert _windows_written(True, base, pages, span, first, n) == _windows_written(
        False, base, pages, span, first, n
    )


@settings(max_examples=300, deadline=None)
@given(
    pages=st.integers(1, 12),
    span=st.integers(1, 30),
    first=st.integers(0, 40),
    n=st.integers(1, 40),
    offset=st.sampled_from([0, 1, PAGE_SIZE - 1]),
)
def test_window_union_matches_per_window_writes_generated(pages, span, first, n, offset):
    """At most one period of bursts, as the dirtier batches them."""
    n = min(n, span // math.gcd(pages, span))
    base = BASE + offset
    assert _windows_written(True, base, pages, span, first, n) == _windows_written(
        False, base, pages, span, first, n
    )


def test_window_union_bounds_checks_the_batch():
    """A batch whose last window would leave the space raises, as that
    window's own write does."""
    space = MemorySpace(BASE + 10 * PAGE_SIZE)
    ranges = migration._window_ranges(BASE, 3, 10, 0, 10)
    with pytest.raises(IndexError):
        space.write_ranges(ranges)
    with pytest.raises(IndexError):
        space.write_range(BASE + 9 * PAGE_SIZE, 3 * PAGE_SIZE)


@pytest.mark.parametrize("pages, span", [(3, 10), (24, 1_000)], ids=["3-of-10", "24-of-1000"])
def test_uneven_windows_identical(monkeypatch, pages, span):
    """A dirtier whose windows do not divide ``span`` (so some run past
    it) ends in the same state with run-ahead as stepped."""

    def run():
        stack, proc = _migrating(StackConfig(levels=2, io_model="vp"), pages=pages, span=span)
        stack.sim.run()
        return _state(stack, _mig_fields(proc.result))

    ahead, stepped, merged = _both(monkeypatch, run)
    assert ahead == stepped
    assert merged > 0
