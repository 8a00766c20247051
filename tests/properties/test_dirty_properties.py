"""Differential property tests for dirty tracking: ``MemorySpace`` and
``DirtyLog`` record writes as pending page runs and merge them into
sorted runs when read, and ``PageRuns`` answers set questions on runs.
Every observation must match an eager per-page model."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import mem
from repro.hw.mem import PAGE_SIZE, DirtyLog, MemorySpace, PageRuns, pages_in_range

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


# ----------------------------------------------------------------------
# The run set itself
# ----------------------------------------------------------------------
#: A small page universe, so random runs abut, nest and overlap.
UNIVERSE = 24

runs_st = st.lists(
    st.tuples(st.integers(0, UNIVERSE), st.integers(0, UNIVERSE)).map(
        lambda r: (min(r), max(r))
    ),
    max_size=8,
)
regs = st.integers(0, 2)

run_ops = st.one_of(
    st.tuples(st.just("build"), regs, runs_st),
    st.tuples(st.just("pages"), regs, st.lists(st.integers(0, UNIVERSE), max_size=10)),
    st.tuples(st.just("record"), st.integers(0, UNIVERSE), st.integers(0, UNIVERSE)),
    st.tuples(st.just("fold")),
    st.tuples(st.just("drain"), regs),
    st.tuples(st.just("or"), regs, regs, regs),
    st.tuples(st.just("ior"), regs, regs),
    st.tuples(st.just("sub"), regs, regs, regs),
    st.tuples(st.just("isub"), regs, regs),
    st.tuples(st.just("set_ops"), regs, regs),
)


def _pages_of(runs):
    return {p for lo, hi in runs for p in range(lo, hi)}


def _check(runs, model):
    """Every read of ``runs`` agrees with the page set ``model``, and its
    flat run list is canonical (strictly ascending, so runs neither
    overlap nor abut)."""
    b = runs._b
    assert len(b) % 2 == 0
    assert all(x < y for x, y in zip(b, b[1:]))
    assert len(runs) == len(model)
    assert list(runs) == sorted(model)
    assert runs == model and model == runs
    assert runs == PageRuns(model)
    for p in range(-1, UNIVERSE + 2):
        assert (p in runs) == (p in model)


@settings(max_examples=400, deadline=None)
@given(
    bound=st.sampled_from([1, 2, 3, mem.MAX_PENDING_RUNS]),
    program=st.lists(run_ops, max_size=40),
)
def test_page_runs_match_a_set_model(bound, program):
    """Random builds, log records, folds, drains, unions and differences
    on three run-set registers, each checked against a Python ``set``:
    ``len``, ``in``, ascending iteration and equality."""
    with mock.patch.object(mem, "MAX_PENDING_RUNS", bound):
        reg = [PageRuns() for _ in range(3)]
        model = [set() for _ in range(3)]
        log = DirtyLog()
        logged = set()
        for op, *args in program:
            if op == "build":
                r, runs = args
                model[r] = _pages_of(runs)
                reg[r] = PageRuns(model[r])
            elif op == "pages":
                r, pages = args
                reg[r], model[r] = PageRuns(pages), set(pages)
            elif op == "record":
                lo, hi = args
                log.mark_run(lo, hi)
                logged.update(range(lo, hi))
                assert len(log) == len(logged)
            elif op == "fold":
                assert len(log) == len(logged)
            elif op == "drain":
                reg[args[0]], model[args[0]] = log.drain(), logged
                logged = set()
                assert len(log) == 0
            elif op == "or":
                r, x, y = args
                reg[r], model[r] = reg[x] | reg[y], model[x] | model[y]
            elif op == "ior":
                r, x = args
                reg[r] |= reg[x]
                model[r] = model[r] | model[x]
            elif op == "sub":
                r, x, y = args
                reg[r], model[r] = reg[x] - reg[y], model[x] - model[y]
            elif op == "isub":
                r, x = args
                reg[r] -= reg[x]
                model[r] = model[r] - model[x]
            else:
                x, y = args
                # Mixed with plain sets, and the Set mixins.
                assert reg[x] | model[y] == model[x] | model[y]
                assert model[y] | reg[x] == model[x] | model[y]
                assert reg[x] - model[y] == model[x] - model[y]
                assert (reg[x] & reg[y]) == model[x] & model[y]
                assert (reg[x] <= reg[y]) == (model[x] <= model[y])
                assert reg[x].isdisjoint(reg[y]) == model[x].isdisjoint(model[y])
            for runs, pages in zip(reg, model):
                _check(runs, pages)
        _check(log.drain(), logged)


#: (name, first runs, second runs): runs that abut, nest and overlap.
SHAPES = [
    ("disjoint", [(0, 2)], [(5, 7)]),
    ("abut-right", [(0, 3)], [(3, 5)]),
    ("abut-left", [(3, 5)], [(0, 3)]),
    ("nested", [(0, 10)], [(2, 4)]),
    ("nested-at-start", [(0, 10)], [(0, 4)]),
    ("nested-at-end", [(0, 10)], [(6, 10)]),
    ("identical", [(2, 6)], [(2, 6)]),
    ("overlap", [(0, 5)], [(3, 8)]),
    ("bridge", [(0, 2), (4, 6)], [(2, 4)]),
    ("bridge-overlapping", [(0, 3), (5, 8)], [(1, 6)]),
    ("cover-many", [(1, 2), (3, 4), (6, 8)], [(0, 9)]),
    ("interleaved", [(0, 2), (4, 6), (8, 10)], [(1, 5), (7, 9)]),
    ("gap-of-one", [(0, 2), (3, 5)], [(7, 8)]),
]


@pytest.mark.parametrize("first, second", [s[1:] for s in SHAPES], ids=[s[0] for s in SHAPES])
@pytest.mark.parametrize("bound", [1, mem.MAX_PENDING_RUNS])
def test_page_run_shapes(first, second, bound):
    """Each shape both ways round, through ``|``, ``-`` and a log's
    in-place merge of pending runs, against the page-set model."""
    for a, c in ((first, second), (second, first)):
        px, py = _pages_of(a), _pages_of(c)
        x, y = PageRuns(px), PageRuns(py)
        _check(x | y, px | py)
        _check(x - y, px - py)
        with mock.patch.object(mem, "MAX_PENDING_RUNS", bound):
            log = DirtyLog()
            for lo, hi in a:
                log.mark_run(lo, hi)
            assert len(log) == len(px)  # folds the pending runs
            for lo, hi in c:
                log.mark_run(lo, hi)
            _check(log.drain(), px | py)
