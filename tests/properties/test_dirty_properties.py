"""Differential property tests for dirty tracking: ``MemorySpace`` and
``DirtyLog`` record writes as pending page runs and build page sets only
when read.  Every observation must match an eager per-page model."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import mem
from repro.hw.mem import PAGE_SIZE, DirtyLog, MemorySpace, pages_in_range

#: A small space, so runs overlap, repeat and straddle each other.
SPACE_PAGES = 48
SPACE_BYTES = SPACE_PAGES * PAGE_SIZE

addrs = st.integers(0, SPACE_BYTES - 1)
log_ids = st.integers(0, 2)
pfns = st.integers(0, SPACE_PAGES + 4)

ops = st.one_of(
    st.tuples(st.just("write"), addrs),
    st.tuples(st.just("write_range"), addrs, st.integers(0, 20 * PAGE_SIZE)),
    st.tuples(st.just("attach"), log_ids),
    st.tuples(st.just("detach"), log_ids),
    st.tuples(st.just("drain"), log_ids),
    st.tuples(st.just("len"), log_ids),
    st.tuples(st.just("pages"), log_ids),
    st.tuples(st.just("touched")),
    st.tuples(st.just("mark"), log_ids, pfns, pfns),
)


@settings(max_examples=300, deadline=None)
@given(
    nlogs=st.integers(1, 3),
    bound=st.sampled_from([1, 2, 3, mem.MAX_PENDING_RUNS]),
    program=st.lists(ops, max_size=120),
)
def test_lazy_dirty_tracking_matches_eager_model(nlogs, bound, program):
    """Random interleavings of writes, attach/detach, drains, reads and
    device-log marks, at several fold thresholds (1 folds on every
    write; the real constant mostly folds on reads)."""
    with mock.patch.object(mem, "MAX_PENDING_RUNS", bound):
        space = MemorySpace(SPACE_BYTES)
        logs = [DirtyLog(f"log{i}") for i in range(nlogs)]
        touched = set()
        logged = [set() for _ in logs]
        attached = set()

        def written(pages):
            touched.update(pages)
            for i in attached:
                logged[i].update(pages)

        for op, *args in program:
            if op == "touched":
                assert space.touched_pages == touched
            elif op == "write":
                space.write(args[0], op)
                written(pages_in_range(args[0], 1))
            elif op == "write_range":
                addr, size = args
                size = min(size, SPACE_BYTES - addr)
                space.write_range(addr, size)
                written(pages_in_range(addr, size))
            else:
                # A log operation: its first argument picks the log.
                i = args[0] % nlogs
                log = logs[i]
                if op == "attach":
                    space.attach_dirty_log(log)
                    attached.add(i)
                elif op == "detach":
                    space.detach_dirty_log(log)
                    attached.discard(i)
                elif op == "drain":
                    assert log.drain() == logged[i]
                    logged[i] = set()
                elif op == "len":
                    assert len(log) == len(logged[i])
                elif op == "pages":
                    assert log.pages == logged[i]
                else:
                    lo, hi = args[1:]
                    log.mark_run(lo, hi)
                    logged[i].update(range(lo, hi))
            assert space.dirty_logs == {logs[j] for j in attached}

        assert space.touched_pages == touched
        for log, model in zip(logs, logged):
            assert len(log) == len(model)
            assert log.drain() == model
            assert len(log) == 0


def test_pending_runs_stay_bounded_without_reads():
    """100k writes over the study dirtier's 16 sliding windows, with
    nothing reading the pages in between, leave at most
    ``MAX_PENDING_RUNS`` pending runs on the space and on its log."""
    base, window, span = 0x2000_0000, 64, 1_024
    space = MemorySpace(base + span * PAGE_SIZE)
    log = DirtyLog()
    space.attach_dirty_log(log)
    for i in range(100_000):
        start = (i * window) % span
        space.write_range(base + start * PAGE_SIZE, window * PAGE_SIZE)
    assert len(space._runs) <= mem.MAX_PENDING_RUNS
    assert len(log._runs) <= mem.MAX_PENDING_RUNS
    first = base // PAGE_SIZE
    assert log.drain() == set(range(first, first + span))
    assert space.touched_pages == set(range(first, first + span))


def test_pending_runs_stay_bounded_when_every_run_is_new():
    """Deduplication cannot help when no run repeats; the fold threshold
    alone holds the bound."""
    space = MemorySpace(100_000 * PAGE_SIZE)
    log = DirtyLog()
    space.attach_dirty_log(log)
    for pfn in range(100_000):
        space.write(pfn * PAGE_SIZE, pfn)
        assert len(space._runs) <= mem.MAX_PENDING_RUNS
        assert len(log._runs) <= mem.MAX_PENDING_RUNS
    assert len(log) == len(space.touched_pages) == 100_000
