"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Event, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_call_after_ordering():
    sim = Simulator()
    order = []
    sim.call_after(10, lambda: order.append("b"))
    sim.call_after(5, lambda: order.append("a"))
    sim.call_after(10, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 10


def test_ties_break_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.call_after(7, lambda t=tag: order.append(t))
    sim.run()
    assert order == list("abcde")


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.now = 100
    with pytest.raises(SimulationError):
        sim.call_at(50, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_after(-1, lambda: None)


def test_process_delay_yield():
    sim = Simulator()

    def proc():
        yield 100
        yield 50
        return "done"

    result = sim.run_process(proc())
    assert result == "done"
    assert sim.now == 150


def test_process_yield_from_composition():
    sim = Simulator()

    def inner():
        yield 30
        return 7

    def outer():
        value = yield from inner()
        yield 20
        return value * 2

    assert sim.run_process(outer()) == 14
    assert sim.now == 50


def test_event_wait_and_trigger():
    sim = Simulator()
    ev = sim.event("go")
    log = []

    def waiter():
        value = yield ev
        log.append((sim.now, value))

    def firer():
        yield 40
        ev.trigger("payload")

    sim.spawn(waiter(), "w")
    sim.spawn(firer(), "f")
    sim.run()
    assert log == [(40, "payload")]


def test_wait_on_already_triggered_event_returns_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.trigger(42)

    def waiter():
        value = yield ev
        return value

    assert sim.run_process(waiter()) == 42
    assert sim.now == 0


def test_event_trigger_idempotent():
    sim = Simulator()
    ev = sim.event()
    ev.trigger(1)
    ev.trigger(2)
    assert ev.value == 1


def test_multiple_waiters_fifo():
    sim = Simulator()
    ev = sim.event()
    woken = []

    def waiter(tag):
        yield ev
        woken.append(tag)

    for tag in range(5):
        sim.spawn(waiter(tag), f"w{tag}")
    sim.call_after(10, lambda: ev.trigger())
    sim.run()
    assert woken == [0, 1, 2, 3, 4]


def test_process_join():
    sim = Simulator()

    def child():
        yield 100
        return "child-result"

    def parent():
        proc = sim.spawn(child(), "child")
        value = yield proc
        return (sim.now, value)

    assert sim.run_process(parent()) == (100, "child-result")


def test_join_already_finished_process():
    sim = Simulator()

    def child():
        yield 5
        return 99

    def parent():
        proc = sim.spawn(child(), "child")
        yield 50
        value = yield proc
        return value

    assert sim.run_process(parent()) == 99
    assert sim.now == 50


def test_bad_yield_raises():
    sim = Simulator()

    def bad():
        yield "nonsense"

    sim.spawn(bad(), "bad")
    with pytest.raises(SimulationError):
        sim.run()


def test_negative_delay_yield_raises():
    sim = Simulator()

    def bad():
        yield -5

    sim.spawn(bad(), "bad")
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_stops_clock():
    sim = Simulator()
    hits = []
    sim.call_after(100, lambda: hits.append(1))
    sim.call_after(300, lambda: hits.append(2))
    sim.run(until=200)
    assert hits == [1]
    assert sim.now == 200
    sim.run()
    assert hits == [1, 2]
    assert sim.now == 300


def test_run_until_advances_clock_when_idle():
    sim = Simulator()
    sim.run(until=500)
    assert sim.now == 500


def test_run_process_deadlock_detection():
    sim = Simulator()
    ev = sim.event()

    def stuck():
        yield ev

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck())


def test_cycles_seconds_roundtrip():
    sim = Simulator(freq_hz=2_200_000_000)
    assert sim.cycles(1.0) == 2_200_000_000
    assert sim.seconds(2_200_000_000) == pytest.approx(1.0)
    assert sim.cycles(sim.seconds(12345)) == 12345


def test_determinism_across_runs():
    def build_and_run(seed):
        sim = Simulator(seed=seed)
        trace = []

        def proc(tag):
            for _ in range(10):
                yield sim.rng.randrange(1, 100)
                trace.append((sim.now, tag))

        for t in range(3):
            sim.spawn(proc(t), f"p{t}")
        sim.run()
        return trace

    assert build_and_run(7) == build_and_run(7)
    assert build_and_run(7) != build_and_run(8)


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None, "notgen")  # type: ignore[arg-type]


def test_float_delay_truncated_to_int_time():
    sim = Simulator()

    def proc():
        yield 10.7

    sim.run_process(proc())
    assert isinstance(sim.now, int)
    assert sim.now == 10


def test_max_events_budget_is_per_call():
    """A fresh ``run(max_events=n)`` gets a fresh budget of n — it must
    not be charged for events executed by earlier run() calls."""
    sim = Simulator()
    hits = []
    for i in range(10):
        sim.call_after(i + 1, lambda i=i: hits.append(i))
    sim.run(max_events=3)
    assert hits == [0, 1, 2]
    sim.run(max_events=3)
    assert hits == [0, 1, 2, 3, 4, 5]
    sim.run(max_events=3)
    assert hits == [0, 1, 2, 3, 4, 5, 6, 7, 8]


def test_max_events_counts_process_steps():
    sim = Simulator()
    steps = []

    def proc():
        for i in range(100):
            steps.append(i)
            yield 1

    sim.spawn(proc(), "p")
    sim.run(max_events=5)
    done_after_first = len(steps)
    assert 0 < done_after_first < 100
    sim.run(max_events=5)
    assert len(steps) > done_after_first  # fresh budget made progress
    sim.run()
    assert len(steps) == 100


def test_fast_path_preserves_event_callback_interleaving():
    """A callback scheduled for the current time before a resume was
    queued must still run first (global seq order among same-time work)."""
    sim = Simulator()
    order = []
    ev = sim.event()

    def waiter():
        yield ev
        order.append("resumed")

    def driver():
        yield 10
        # At t=10: schedule a callback, then trigger the event.  The
        # callback has the smaller sequence number and must win.
        sim.call_after(0, lambda: order.append("callback"))
        ev.trigger()
        order.append("driver-continues")
        yield 1

    sim.spawn(waiter(), "w")
    sim.spawn(driver(), "d")
    sim.run()
    assert order == ["driver-continues", "callback", "resumed"]


def test_inline_advance_does_not_skip_same_time_callbacks():
    """A delay yield may not advance past a callback scheduled at the
    exact expiry time."""
    sim = Simulator()
    order = []
    sim.call_after(50, lambda: order.append(("cb", sim.now)))

    def proc():
        yield 50
        order.append(("proc", sim.now))

    sim.spawn(proc(), "p")
    sim.run()
    assert order == [("cb", 50), ("proc", 50)]


def test_stats_counters():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        yield ev

    def firer():
        yield 10
        ev.trigger()
        yield 5

    sim.spawn(waiter(), "w")
    sim.spawn(firer(), "f")
    sim.run()
    s = sim.stats()
    assert s["events_executed"] > 0
    assert s["ready_hits"] > 0  # spawns and the event resume
    assert s["pending_events"] == 0
    assert s["last_run_events"] == s["events_executed"]
    assert s["last_run_wall_s"] >= 0.0
    assert s["last_run_events_per_sec"] >= 0.0


def test_stats_last_run_resets_per_call():
    sim = Simulator()

    def proc(n):
        for _ in range(n):
            yield 1

    sim.spawn(proc(50), "a")
    sim.run()
    first_total = sim.stats()["events_executed"]
    sim.spawn(proc(2), "b")
    sim.run()
    s = sim.stats()
    assert s["events_executed"] > first_total  # lifetime accumulates
    assert s["last_run_events"] < first_total  # last-run is per call
