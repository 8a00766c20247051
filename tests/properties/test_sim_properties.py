"""Property tests for the simulation engine and dirty logging."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.mem import PAGE_SIZE, DirtyLog, MemorySpace, pages_in_range
from repro.sim import Simulator


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
def test_event_ordering_is_time_then_fifo(delays):
    sim = Simulator()
    fired = []
    for i, d in enumerate(delays):
        sim.call_after(d, lambda i=i, d=d: fired.append((d, i)))
    sim.run()
    assert fired == sorted(fired)  # time-major, insertion-order minor


@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=10),
        min_size=1,
        max_size=8,
    )
)
def test_process_time_is_sum_of_delays(all_delays):
    sim = Simulator()
    ends = {}

    def proc(i, delays):
        for d in delays:
            yield d
        ends[i] = sim.now

    for i, delays in enumerate(all_delays):
        sim.spawn(proc(i, delays), f"p{i}")
    sim.run()
    for i, delays in enumerate(all_delays):
        assert ends[i] == sum(delays)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 24) - 1),
            st.integers(min_value=1, max_value=5 * PAGE_SIZE),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_dirty_log_is_exactly_the_touched_pages(writes):
    """Migration correctness depends on this: the dirty log must contain
    exactly the pages covered by the writes made while attached."""
    mem = MemorySpace(1 << 25)
    log = DirtyLog()
    mem.attach_dirty_log(log)
    expected = set()
    for addr, size in writes:
        size = min(size, mem.size_bytes - addr)
        if size <= 0:
            continue
        mem.write_range(addr, size)
        expected.update(pages_in_range(addr, size))
    assert log.drain() == expected


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=20))
def test_simulation_determinism(seed, nprocs):
    def run():
        sim = Simulator(seed=seed)
        trace = []

        def proc(i):
            for _ in range(5):
                yield sim.rng.randrange(1, 50)
                trace.append((sim.now, i))

        for i in range(nprocs):
            sim.spawn(proc(i), f"p{i}")
        sim.run()
        return trace

    assert run() == run()
