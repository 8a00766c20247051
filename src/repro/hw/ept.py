"""Extended page tables (EPT) and address-translation machinery.

A page table maps guest-physical page frames to parent-physical page
frames with permissions.  It is stored as sorted, non-overlapping
extents ``(start_pfn, npages, target_pfn, perm)``: page
``start_pfn + i`` maps to ``target_pfn + i``.  Guest RAM and DMA pools
are contiguous, so a table holds a handful of extents, not one entry per
page.  The same structure backs:

* the EPT the host hypervisor builds for each of its VMs,
* the *shadow* EPT L0 builds for nested VMs (composition of per-level
  tables, Section 2),
* IOMMU DMA translation tables and the shadow IOMMU tables that make
  (virtual-) passthrough work (Sections 3.1, 3.5).

Dirty logging for live migration lives in :mod:`repro.hw.mem`.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from typing import Iterable, List, Optional, Tuple

from repro.hw.mem import PAGE_SHIFT

__all__ = ["Perm", "EptViolation", "PageTable", "Run", "compose"]


class Perm(enum.IntFlag):
    """Page permissions."""

    NONE = 0
    R = 1
    W = 2
    X = 4
    RW = R | W
    RWX = R | W | X


#: ``(pfn, npages, target_pfn, perm)``: pages ``pfn .. pfn + npages - 1``
#: map to ``target_pfn .. target_pfn + npages - 1`` with ``perm``.
Run = Tuple[int, int, int, Perm]


class EptViolation(Exception):
    """Raised on a translation miss or permission failure."""

    def __init__(self, pfn: int, access: Perm, reason: str) -> None:
        super().__init__(f"EPT violation at pfn {pfn:#x} ({access!r}): {reason}")
        self.pfn = pfn
        self.access = access
        self.reason = reason


class PageTable:
    """A page table keyed by page frame number, held as sorted extents.

    Lookups bisect the extent start pfns.  Walk latency is not modelled
    here: the nested-walk cost of a virtual-passthrough doorbell is
    charged from ``costs.vp_nested_ept_walk`` by L0's MMIO handler in
    :mod:`repro.hv.kvm`.
    """

    def __init__(self, name: str = "ept") -> None:
        self.name = name
        self._starts: List[int] = []
        self._runs: List[Run] = []
        self._count = 0

    def map(
        self, pfn: int, target_pfn: int, perm: Perm = Perm.RWX, npages: int = 1
    ) -> None:
        """Map pages ``pfn .. pfn + npages - 1`` to ``target_pfn ..``,
        overwriting the parts of any extents they overlap."""
        if perm == Perm.NONE:
            raise ValueError("cannot map with empty permissions")
        if npages < 1:
            raise ValueError("npages must be positive")
        end = pfn + npages
        starts, runs = self._starts, self._runs
        # runs[lo:hi] are the extents the new one overlaps; only the
        # first and last can stick out of it, and those parts are kept.
        lo = bisect_right(starts, pfn)
        if lo and runs[lo - 1][0] + runs[lo - 1][1] > pfn:
            lo -= 1
        hi = bisect_left(starts, end, lo)
        old = runs[lo:hi]
        new = [(pfn, npages, target_pfn, perm)]
        if old:
            start, n, target, p = old[0]
            if start < pfn:
                new.insert(0, (start, pfn - start, target, p))
            start, n, target, p = old[-1]
            if start + n > end:
                new.append((end, start + n - end, target + end - start, p))
        runs[lo:hi] = new
        starts[lo:hi] = [run[0] for run in new]
        self._count += sum(run[1] for run in new) - sum(run[1] for run in old)

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def lookup(self, pfn: int) -> Optional[Tuple[int, Perm]]:
        """``(target_pfn, perm)`` for ``pfn``, or None.  No permission
        check."""
        i = bisect_right(self._starts, pfn) - 1
        if i >= 0:
            start, n, target, perm = self._runs[i]
            if pfn - start < n:
                return target + pfn - start, perm
        return None

    def translate(self, pfn: int, access: Perm = Perm.R) -> int:
        """Translate with permission enforcement; raises EptViolation."""
        i = bisect_right(self._starts, pfn) - 1
        if i >= 0:
            start, n, target, perm = self._runs[i]
            if pfn - start < n:
                if access & ~perm:
                    raise EptViolation(pfn, access, f"permission {perm!r}")
                return target + pfn - start
        raise EptViolation(pfn, access, "not mapped")

    def translate_addr(self, addr: int, access: Perm = Perm.R) -> int:
        """Translate a byte address (page offset preserved)."""
        target_pfn = self.translate(addr >> PAGE_SHIFT, access)
        return (target_pfn << PAGE_SHIFT) | (addr & ((1 << PAGE_SHIFT) - 1))

    def compose_runs(self, runs: Iterable[Run]) -> Tuple[List[Run], Optional[int]]:
        """Continue ``runs`` (which end in this table's input space)
        through this table.

        Returns the composed runs, split at this table's extent
        boundaries, in input order, with permissions intersected (an
        empty intersection is kept as ``Perm.NONE``), and the first
        target pfn, in input order, that this table does not map (None
        when every page is mapped).  Unmapped pages are left out.
        """
        starts, table = self._starts, self._runs
        out: List[Run] = []
        missing = None
        for pfn, npages, target, perm in runs:
            cur, end = target, target + npages
            i = max(bisect_right(starts, target) - 1, 0)
            while cur < end and i < len(table):
                start, n, outer_target, outer_perm = table[i]
                i += 1
                if start >= end:
                    break
                if start + n <= cur:
                    continue
                if start > cur:
                    missing = cur if missing is None else missing
                    cur = start
                stop = min(start + n, end)
                out.append((pfn + cur - target, stop - cur,
                            outer_target + cur - start, perm & outer_perm))
                cur = stop
            if cur < end and missing is None:
                missing = cur
        return out, missing

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def extents(self) -> List[Run]:
        """Every mapping as ``(pfn, npages, target_pfn, perm)``, sorted
        by pfn."""
        return list(self._runs)

    def __len__(self) -> int:
        """Mapped pages (not extents)."""
        return self._count

    def __contains__(self, pfn: int) -> bool:
        return self.lookup(pfn) is not None


def compose(outer: PageTable, inner: PageTable, name: str = "shadow") -> PageTable:
    """Build a shadow table equivalent to translating through ``inner``
    then ``outer`` (inner: Ln->Lk addresses, outer: Lk->host).

    This is exactly the shadow-page-table construction the paper relies on
    for recursive virtual-passthrough (Section 3.5, Figure 6): the L1
    virtual IOMMU holds the combined mappings from Ln VM physical addresses
    to L1 VM physical addresses.

    Permissions intersect.  Inner mappings whose target is not present in
    ``outer`` are skipped (they fault on demand at use time).
    """
    shadow = PageTable(name=name)
    composed, _missing = outer.compose_runs(inner.extents())
    for pfn, npages, target_pfn, perm in composed:
        if perm:
            shadow.map(pfn, target_pfn, perm, npages)
    return shadow
