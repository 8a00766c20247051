"""Guest/host physical memory spaces with page-granular dirty tracking.

Memory contents are modelled sparsely: a :class:`MemorySpace` stores Python
objects at addresses.  What matters for the reproduction is not byte-level
data but (a) which *pages* are touched — the input to live-migration dirty
logging (paper Section 3.6) — and (b) the address-translation paths
(EPT / IOMMU) data must cross.

Writes are recorded as page runs, half-open ``[lo, hi)`` page-frame
ranges, and turned into page sets only when something reads the pages
(``MemorySpace.touched_pages``, ``DirtyLog.pages`` / ``drain`` /
``len``).  A workload re-dirtying the same windows between two
pre-copy drains then costs one dict probe per write and per attached
log, not a page-set union each.  Pending runs are keyed by their first
page, so a repeated run adds nothing (of two runs from the same page
the longer one is kept), and they are folded into the page set once
``MAX_PENDING_RUNS`` of them accumulate, so the extra memory per space
and per log is bounded.  Like PML-style hardware dirty logging, the
write side only records; the pages are collected when read.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Set

__all__ = [
    "PAGE_SIZE",
    "PAGE_SHIFT",
    "DirtyLog",
    "MemorySpace",
    "page_of",
    "pages_in_range",
]

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

#: Distinct pending page runs a space or a log holds before folding them
#: into its page set.  The study dirtier cycles through 16 windows, so
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
        self._touched: Set[int] = set()
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
        self._check(addr, size)
        self._mark_dirty(addr, size)

    def _mark_dirty(self, addr: int, size: int) -> None:
        if size <= 0:
            return
        lo = addr >> PAGE_SHIFT
        hi = ((addr + size - 1) >> PAGE_SHIFT) + 1
        _record(self._touched, self._runs, lo, hi)
        for log in self._dirty_logs:
            _record(log._pages, log._runs, lo, hi)

    @property
    def touched_pages(self) -> Set[int]:
        """Pages ever written (used to size migration's first pre-copy
        pass)."""
        if self._runs:
            _fold(self._touched, self._runs)
        return self._touched

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


def _record(pages: Set[int], runs: Dict[int, int], lo: int, hi: int) -> None:
    """Add the run ``[lo, hi)`` to ``runs`` (pending pages of ``pages``),
    folding once ``MAX_PENDING_RUNS`` are pending."""
    if runs.get(lo, 0) < hi:
        runs[lo] = hi
        if len(runs) >= MAX_PENDING_RUNS:
            _fold(pages, runs)


def _fold(pages: Set[int], runs: Dict[int, int]) -> None:
    """Move the pages of every pending run (``lo -> hi``) into ``pages``
    and clear ``runs``."""
    for lo, hi in runs.items():
        pages.update(range(lo, hi))
    runs.clear()


class DirtyLog:
    """A set of dirtied page frame numbers, drainable in rounds."""

    def __init__(self, name: str = "dirty") -> None:
        self.name = name
        self._pages: Set[int] = set()
        self._runs: Dict[int, int] = {}

    def mark_run(self, lo: int, hi: int) -> None:
        """Log page frames ``lo`` up to (not including) ``hi`` as dirty."""
        if hi > lo:
            _record(self._pages, self._runs, lo, hi)

    @property
    def pages(self) -> Set[int]:
        """The currently logged dirty pages."""
        if self._runs:
            _fold(self._pages, self._runs)
        return self._pages

    def drain(self) -> Set[int]:
        """Return and clear the currently logged dirty pages."""
        out = self.pages
        self._pages = set()
        return out

    def __len__(self) -> int:
        return len(self.pages)
