"""Guest/host physical memory spaces with page-granular dirty tracking.

Memory contents are modelled sparsely: a :class:`MemorySpace` stores Python
objects at addresses.  What matters for the reproduction is not byte-level
data but (a) which *pages* are touched — the input to live-migration dirty
logging (paper Section 3.6) — and (b) the address-translation paths
(EPT / IOMMU) data must cross.

Touched and dirty pages are held as page runs, half-open ``[lo, hi)``
page-frame ranges kept sorted, disjoint and non-abutting, never as
per-page sets.  Like PML-style hardware dirty logging, the write side
only records: a write adds one run to a dict of pending runs keyed by
its first page (one dict probe on the space and one per attached log;
of two runs from the same page the longer is kept, so a workload
re-dirtying the same windows adds nothing).  Pending runs are merged
into the owner's sorted run list when something reads the pages
(``MemorySpace.touched_pages``, ``DirtyLog.drain`` / ``len``), or once
``MAX_PENDING_RUNS`` of them accumulate, which bounds the extra memory
per space and per log.  The merge bisects each pending
run into the list and splices it in place (see ``_splice``), so it never
sorts the list or enumerates a page.  Readers get :class:`PageRuns`, a
read-only set whose ``len``, ``in``, unions and differences work on
runs, so pre-copy rounds and the auditor never build pages either.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Set as AbstractSet
from itertools import chain
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

__all__ = [
    "PAGE_SIZE",
    "PAGE_SHIFT",
    "DirtyLog",
    "MemorySpace",
    "PageRuns",
    "page_of",
    "pages_in_range",
]

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

#: Distinct pending page runs a space or a log holds before merging them
#: into its sorted runs.  The study dirtier cycles through 16 windows, so
#: its runs stay pending until the next drain.
MAX_PENDING_RUNS = 32


def page_of(addr: int) -> int:
    """Page frame number containing ``addr``."""
    return addr >> PAGE_SHIFT


def pages_in_range(addr: int, size: int) -> range:
    """Page frame numbers covering ``[addr, addr + size)``."""
    if size <= 0:
        return range(0)
    return range(addr >> PAGE_SHIFT, ((addr + size - 1) >> PAGE_SHIFT) + 1)


class PageRuns(AbstractSet):
    """A read-only set of page frame numbers, held as runs.

    The runs live in one flat list ``[lo0, hi0, lo1, hi1, ...]``, strictly
    ascending, so no two runs overlap or abut.  Equal sets therefore have
    equal lists, an index's parity tells a run's start (even) from its end
    (odd), and ``in`` is one bisect.  ``len`` is cached; ``|`` and ``-``
    (and so ``|=`` and ``-=``, which rebind) work run by run; iteration is
    ascending.  ``PageRuns(pages)`` builds from page numbers.
    """

    __slots__ = ("_b", "_n")

    def __init__(self, pages: Iterable[int] = ()) -> None:
        b: List[int] = []
        _splice(b, ((p, p + 1) for p in pages))
        self._b = b
        self._n = _count(b)

    def __len__(self) -> int:
        return self._n

    def __contains__(self, page: object) -> bool:
        return bisect_right(self._b, page) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        b = self._b
        return chain.from_iterable(map(range, b[::2], b[1::2]))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PageRuns):
            return self._b == other._b
        return AbstractSet.__eq__(self, other)

    __hash__ = None  # type: ignore[assignment]

    def __or__(self, other: object) -> "PageRuns":
        if not isinstance(other, PageRuns):
            return AbstractSet.__or__(self, other)
        big, small = (self, other) if len(self._b) >= len(other._b) else (other, self)
        if not small._b:
            return big
        b = big._b[:]
        _splice(b, zip(small._b[::2], small._b[1::2]))
        return _of(b)

    def __sub__(self, other: object) -> "PageRuns":
        if not isinstance(other, PageRuns):
            return AbstractSet.__sub__(self, other)
        if not self._b or not other._b:
            return self
        b = self._b[:]
        _cut(b, zip(other._b[::2], other._b[1::2]))
        return _of(b)


def _of(b: List[int]) -> PageRuns:
    """A :class:`PageRuns` over the flat run list ``b`` (taken, not
    copied)."""
    runs = PageRuns.__new__(PageRuns)
    runs._b = b
    runs._n = _count(b)
    return runs


def _count(b: List[int]) -> int:
    """Pages in the flat run list ``b``."""
    return sum(b[1::2]) - sum(b[::2])


def _splice(b: List[int], runs: Iterable[Tuple[int, int]]) -> None:
    """Add the ``(lo, hi)`` runs (any order, overlapping or not) to the
    flat run list ``b`` in place.

    Each run is bisected into ``b``: a run already covered costs one
    bisect, a run that touches no other is one slice insertion, and a
    run that overlaps or abuts others replaces the bounds it covers.
    Nothing is sorted and no page is enumerated."""
    for lo, hi in runs:
        i = bisect_right(b, lo)
        if i & 1:
            if hi <= b[i]:
                continue
        elif (i == len(b) or hi < b[i]) and (not i or b[i - 1] < lo):
            b[i:i] = (lo, hi)
            continue
        elif i and b[i - 1] == lo:  # abuts the run before: bisect_left
            i -= 1
        j = bisect_right(b, hi, i)
        # An odd index falls inside a run, whose own bound stays.
        if i & 1:
            b[i:j] = () if j & 1 else (hi,)
        else:
            b[i:j] = (lo,) if j & 1 else (lo, hi)


def _cut(b: List[int], runs: Iterable[Tuple[int, int]]) -> None:
    """Remove the non-empty ``(lo, hi)`` runs from the flat run list
    ``b`` in place."""
    for lo, hi in runs:
        i = bisect_left(b, lo)
        j = bisect_right(b, hi, i)
        # An odd index falls inside a run, which keeps its part outside
        # [lo, hi).
        if i & 1:
            b[i:j] = (lo, hi) if j & 1 else (lo,)
        else:
            b[i:j] = (hi,) if j & 1 else ()


def _record(owner: Any, lo: int, hi: int) -> None:
    """Add the run ``[lo, hi)`` to ``owner``'s pending runs, merging them
    into its run list once ``MAX_PENDING_RUNS`` are pending."""
    runs = owner._runs
    if runs.get(lo, 0) < hi:
        runs[lo] = hi
        if len(runs) >= MAX_PENDING_RUNS:
            _fold(owner)


def _fold(owner: Any) -> None:
    """Merge ``owner``'s pending runs into its run list and clear them."""
    _splice(owner._b, owner._runs.items())
    owner._runs.clear()


class MemorySpace:
    """A (guest- or host-) physical address space.

    ``size_bytes`` bounds the valid address range.  Writes optionally feed
    any number of attached dirty logs — the hypervisor's migration code
    attaches/detaches logs around pre-copy rounds.
    """

    def __init__(self, size_bytes: int, name: str = "mem") -> None:
        if size_bytes <= 0:
            raise ValueError("memory size must be positive")
        self.size_bytes = size_bytes
        self.name = name
        self._cells: Dict[int, Any] = {}
        self._dirty_logs: Set["DirtyLog"] = set()
        self._b: List[int] = []
        self._runs: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _check(self, addr: int, size: int = 1) -> None:
        if addr < 0 or addr + size > self.size_bytes:
            raise IndexError(
                f"{self.name}: access [{addr:#x}, +{size}) outside "
                f"{self.size_bytes:#x}-byte space"
            )

    def read(self, addr: int) -> Any:
        self._check(addr)
        return self._cells.get(addr)

    def write(self, addr: int, value: Any) -> None:
        self._check(addr)
        self._cells[addr] = value
        self._mark_dirty(addr, 1)

    def write_range(self, addr: int, size: int) -> None:
        """Mark a bulk write (e.g. a DMA of ``size`` bytes) without storing
        per-byte contents."""
        # The hot path (every DMA and dirtier burst): ``_check`` and
        # ``_mark_dirty`` inlined, which keeps it as cheap as it was with
        # page sets although merging runs costs more than a set update.
        if addr < 0 or addr + size > self.size_bytes:
            self._check(addr, size)  # raises
        if size <= 0:
            return
        lo = addr >> PAGE_SHIFT
        hi = ((addr + size - 1) >> PAGE_SHIFT) + 1
        runs = self._runs
        if runs.get(lo, 0) < hi:
            runs[lo] = hi
            if len(runs) >= MAX_PENDING_RUNS:
                _fold(self)
        for log in self._dirty_logs:
            _record(log, lo, hi)

    def write_ranges(self, ranges: Sequence[Tuple[int, int]]) -> None:
        """Mark several bulk writes, ``(addr, size)`` byte ranges sorted by
        address and not overlapping, as one batch: the batch is
        bounds-checked once, from the first range's start to the last
        range's end."""
        if not ranges:
            return
        first = ranges[0][0]
        last, size = ranges[-1]
        self._check(first, last + size - first)
        for addr, size in ranges:
            self._mark_dirty(addr, size)

    def _mark_dirty(self, addr: int, size: int) -> None:
        if size <= 0:
            return
        lo = addr >> PAGE_SHIFT
        hi = ((addr + size - 1) >> PAGE_SHIFT) + 1
        _record(self, lo, hi)
        for log in self._dirty_logs:
            _record(log, lo, hi)

    @property
    def touched_pages(self) -> PageRuns:
        """Pages ever written (used to size migration's first pre-copy
        pass), as a snapshot."""
        if self._runs:
            _fold(self)
        return _of(self._b[:])

    # ------------------------------------------------------------------
    # Dirty logging
    # ------------------------------------------------------------------
    def attach_dirty_log(self, log: "DirtyLog") -> None:
        self._dirty_logs.add(log)

    def detach_dirty_log(self, log: "DirtyLog") -> None:
        self._dirty_logs.discard(log)

    @property
    def dirty_logs(self) -> FrozenSet["DirtyLog"]:
        """The dirty logs attached right now (a snapshot)."""
        return frozenset(self._dirty_logs)

    @property
    def total_pages(self) -> int:
        return (self.size_bytes + PAGE_SIZE - 1) >> PAGE_SHIFT


class DirtyLog:
    """Dirtied page frame numbers, drainable in rounds."""

    def __init__(self, name: str = "dirty") -> None:
        self.name = name
        self._b: List[int] = []
        self._runs: Dict[int, int] = {}

    def mark_run(self, lo: int, hi: int) -> None:
        """Log page frames ``lo`` up to (not including) ``hi`` as dirty."""
        if hi > lo:
            _record(self, lo, hi)

    def drain(self) -> PageRuns:
        """Return and clear the currently logged dirty pages."""
        if self._runs:
            _fold(self)
        out = _of(self._b)
        self._b = []
        return out

    def __len__(self) -> int:
        if self._runs:
            _fold(self)
        return _count(self._b)
