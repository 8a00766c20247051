"""Dirtier run-ahead: batching changes host work, never simulated state.

``repro.core.migration.dirtier`` applies every burst whose write lands
strictly before ``Simulator.horizon()`` in one step.  Every case below
runs twice, with run-ahead and with the horizon patched to ``sim.now``
(so each burst is stepped on its own), under fast-forward on and off.
Both runs must end in the same simulated state: clock, migration
result, every ``Metrics`` table, the fast-forward counters, the chain-id
counter, the ordered page sets every pre-copy round drained and the
pages the tenant ever touched.
"""

import pytest

import repro.core.migration as migration
import repro.hv.stack as stack_mod
from repro.audit import Auditor
from repro.bench.runner import run_migration_experiment
from repro.core.migration import LiveMigration, dirtier
from repro.hv.stack import StackConfig, build_stack
from repro.hw.mem import DirtyLog, MemorySpace
from repro.sim.engine import Simulator
from repro.study import harness

VARIANTS = ("baseline", "dvh", "ooh", "dvh+ooh")
BASE = 0x2000_0000
COMPUTE = harness._DIRTIER_COMPUTE
PAGES = harness._DIRTIER_PAGES
SPAN = harness._DIRTIER_SPAN
#: Bursts before every window has been written once (no run-ahead yet).
PERIOD = SPAN // PAGES


@pytest.fixture(params=[True, False], ids=["ff", "no-ff"])
def fast_forward(request, monkeypatch):
    monkeypatch.setenv("REPRO_FAST_FORWARD", "1" if request.param else "0")
    return request.param


def _probe(m: pytest.MonkeyPatch) -> dict:
    """Spy on pre-copy drains and count ``write_range`` calls."""
    seen = {"drains": [], "writes": 0}
    drain = migration._drain
    write_range = MemorySpace.write_range

    def spy_drain(cpu_log, device_logs):
        drained = drain(cpu_log, device_logs)
        seen["drains"].append(list(drained))
        return drained

    def spy_write(self, addr, size):
        seen["writes"] += 1
        return write_range(self, addr, size)

    m.setattr(migration, "_drain", spy_drain)
    m.setattr(MemorySpace, "write_range", spy_write)
    return seen


def _both(monkeypatch, run):
    """(run-ahead state, per-burst state, run-ahead writes, per-burst
    writes) of ``run()``."""
    out = []
    for stepped in (False, True):
        with monkeypatch.context() as m:
            seen = _probe(m)
            if stepped:
                m.setattr(Simulator, "horizon", lambda self, queued=True: self.now)
            state = run()
        out.append(((state, seen["drains"]), seen["writes"]))
    (ahead, ahead_writes), (stepped, stepped_writes) = out
    return ahead, stepped, ahead_writes, stepped_writes


def _state(stack, result):
    return (
        stack.sim.now,
        result,
        stack.metrics.snapshot(),
        stack.machine._next_chain_id,
        stack.sim.ff.stats(),
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


def _migrating(config=None, compute=COMPUTE):
    """A settled stack with a live migration of its leaf VM and the study
    dirtier running beside it: (stack, migration process)."""
    stack = build_stack(config or StackConfig(levels=2, io_model="vp"))
    stack.settle()
    devices = [stack.net.device] if stack.config.io_model == "vp" else []
    mig = LiveMigration(stack.machine, stack.leaf_vm, devices=devices)
    proc = stack.sim.spawn(mig.run(), "migration")
    stack.sim.spawn(
        dirtier(stack.machine, stack.ctx(0), proc, BASE, PAGES, SPAN, compute),
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

    ahead, stepped, ahead_writes, stepped_writes = _both(monkeypatch, run)
    assert ahead == stepped
    assert ahead[0][1]["rounds"] > 1
    # The run-ahead must actually engage (about 60x fewer writes).
    assert ahead_writes * 10 < stepped_writes


def test_migration_experiment_identical(monkeypatch, fast_forward):
    ahead, stepped, _, _ = _both(monkeypatch, lambda: run_migration_experiment(seed=1))
    assert ahead == stepped


def test_run_until_stepping_identical(monkeypatch, fast_forward):
    """``run(until=)`` boundaries cut batches short: every boundary shows
    the per-burst state."""
    cut = []
    horizon = Simulator.horizon

    def run():
        stack, proc = _migrating()
        states = []
        while not proc.done:
            stack.sim.run(until=stack.sim.now + 40 * COMPUTE + 12_345)
            states.append(_state(stack, None))
        stack.sim.run()
        states.append(_state(stack, _mig_fields(proc.result)))
        return states

    def spy(self, queued=True):
        h = horizon(self, queued)
        if queued and self._until is not None and h == self._until + 1:
            cut.append(h - 1 - self.now >= COMPUTE)
        return h

    with monkeypatch.context() as m:
        m.setattr(Simulator, "horizon", spy)
        ahead, stepped, ahead_writes, stepped_writes = _both(monkeypatch, run)
    assert ahead == stepped
    assert ahead_writes < stepped_writes
    # Some batches ended at the boundary, not at the next event.
    assert any(cut)


def test_run_max_events_stepping_identical(monkeypatch, fast_forward):
    """No batch runs while a ``max_events`` budget is active: a batch is
    one engine step, and every budgeted return shows the per-burst
    state."""

    def run():
        stack, proc = _migrating()
        states = []
        for _ in range(3_000):
            stack.sim.run(max_events=97)
            states.append(_state(stack, None))
        return states

    ahead, stepped, ahead_writes, stepped_writes = _both(monkeypatch, run)
    assert ahead == stepped
    assert ahead_writes == stepped_writes > PERIOD


def _tie_run(ticks):
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

    for burst in ticks:
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
    ahead, stepped, ahead_writes, stepped_writes = _both(
        monkeypatch, lambda: _tie_run(TIE_TICKS)
    )
    assert ahead == stepped
    assert ahead_writes < stepped_writes
    ticks = ahead[0][1]
    assert [when for when, _ in ticks] == [
        ticks[0][0] + (b - TIE_TICKS[0]) * COMPUTE for b in TIE_TICKS
    ]
    # One write since the previous tick, the one at the tick's own cycle
    # still to come.
    assert len(ticks[1][1]) == PAGES


def test_tie_case_catches_writes_at_the_horizon(monkeypatch):
    """Mutation check: a run-ahead that also applies the write due *at*
    the horizon (``<=`` instead of ``<``) changes the tie case."""
    stepped, _, _, _ = _both(monkeypatch, lambda: _tie_run(TIE_TICKS))
    horizon = Simulator.horizon

    def inclusive(self, queued=True):
        h = horizon(self, queued)
        return h if h is None else h + 1

    with monkeypatch.context() as m:
        m.setattr(Simulator, "horizon", inclusive)
        mutated = _tie_run(TIE_TICKS)
    assert mutated != stepped[0]


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

    ahead, stepped, ahead_writes, stepped_writes = _both(monkeypatch, run)
    assert ahead == stepped
    assert ahead_writes == stepped_writes


def test_attached_auditor_refuses_runahead(monkeypatch, fast_forward):
    """An attached auditor sees every burst."""

    def run():
        stack, proc = _migrating()
        auditor = Auditor()
        auditor.attach_stack(stack)
        stack.sim.run()
        report = auditor.finish()
        return _state(stack, (_mig_fields(proc.result), len(report.violations)))

    ahead, stepped, ahead_writes, stepped_writes = _both(monkeypatch, run)
    assert ahead == stepped
    assert ahead_writes == stepped_writes

