"""Unit tests for extent-based EPT page tables and composition."""

import pytest

from repro.hw.ept import EptViolation, PageTable, Perm, compose
from repro.hw.mem import PAGE_SHIFT


def test_map_translate_roundtrip():
    ept = PageTable()
    ept.map(0x10, 0x99, Perm.RWX)
    assert ept.translate(0x10, Perm.R) == 0x99
    assert ept.translate(0x10, Perm.W) == 0x99


def test_translate_unmapped_raises():
    ept = PageTable()
    with pytest.raises(EptViolation, match="not mapped"):
        ept.translate(0x10)


def test_permission_enforcement():
    ept = PageTable()
    ept.map(0x10, 0x99, Perm.R)
    assert ept.translate(0x10, Perm.R) == 0x99
    with pytest.raises(EptViolation, match="permission"):
        ept.translate(0x10, Perm.W)


def test_map_none_perm_rejected():
    ept = PageTable()
    with pytest.raises(ValueError):
        ept.map(0x10, 0x99, Perm.NONE)


def test_translate_addr_preserves_offset():
    ept = PageTable()
    ept.map(0x10, 0x99)
    addr = (0x10 << PAGE_SHIFT) | 0x123
    assert ept.translate_addr(addr) == (0x99 << PAGE_SHIFT) | 0x123


def test_remap_overwrites_without_count_growth():
    ept = PageTable()
    ept.map(0x10, 0x99)
    ept.map(0x10, 0xAA)
    assert len(ept) == 1
    assert ept.translate(0x10) == 0xAA


def test_sparse_pfns_multilevel_walk():
    ept = PageTable()
    # Single pages spread over a 2**28-page space.
    pfns = [0, 1, 1 << 9, 1 << 18, 1 << 27, (1 << 27) | (5 << 9) | 3]
    for i, pfn in enumerate(pfns):
        ept.map(pfn, 1000 + i)
    for i, pfn in enumerate(pfns):
        assert ept.translate(pfn) == 1000 + i
    assert len(ept) == len(pfns)


def test_entries_iteration_sorted():
    ept = PageTable()
    for pfn in [5, 3, 1 << 20, 7]:
        ept.map(pfn, pfn + 1)
    listed = [pfn for pfn, _n, _target, _perm in ept.extents()]
    assert listed == sorted(listed)
    assert set(listed) == {5, 3, 1 << 20, 7}


def test_map_run_translates_every_page():
    ept = PageTable()
    ept.map(0x10, 0x100, Perm.RW, npages=8)
    assert len(ept) == 8
    assert ept.extents() == [(0x10, 8, 0x100, Perm.RW)]
    for i in range(8):
        assert ept.translate(0x10 + i, Perm.W) == 0x100 + i
    assert 0x10 in ept and 0x17 in ept
    assert 0x0F not in ept and 0x18 not in ept


def test_map_run_rejects_empty_run():
    with pytest.raises(ValueError):
        PageTable().map(0x10, 0x99, Perm.RW, npages=0)


def test_overlapping_map_splits_extents():
    ept = PageTable()
    ept.map(0, 100, Perm.RWX, npages=10)
    ept.map(3, 500, Perm.R, npages=2)
    assert ept.extents() == [
        (0, 3, 100, Perm.RWX),
        (3, 2, 500, Perm.R),
        (5, 5, 105, Perm.RWX),
    ]
    assert len(ept) == 10
    # A run straddling two extents and a gap trims both and counts the gap.
    ept.map(4, 900, Perm.RW, npages=10)
    assert ept.extents() == [
        (0, 3, 100, Perm.RWX),
        (3, 1, 500, Perm.R),
        (4, 10, 900, Perm.RW),
    ]
    assert len(ept) == 14
    # Re-mapping an extent exactly is a no-op.
    ept.map(4, 900, Perm.RW, npages=10)
    assert len(ept) == 14 and len(ept.extents()) == 3


def test_compose_basic():
    inner = PageTable()  # L2 -> L1
    outer = PageTable()  # L1 -> host
    inner.map(0x10, 0x20, Perm.RW)
    outer.map(0x20, 0x30, Perm.RWX)
    shadow = compose(outer, inner)
    assert shadow.translate(0x10, Perm.W) == 0x30


def test_compose_intersects_permissions():
    inner = PageTable()
    outer = PageTable()
    inner.map(0x10, 0x20, Perm.RW)
    outer.map(0x20, 0x30, Perm.R)
    shadow = compose(outer, inner)
    assert shadow.translate(0x10, Perm.R) == 0x30
    with pytest.raises(EptViolation):
        shadow.translate(0x10, Perm.W)


def test_compose_skips_missing_outer():
    inner = PageTable()
    outer = PageTable()
    inner.map(0x10, 0x20)
    inner.map(0x11, 0x21)
    outer.map(0x21, 0x31)
    shadow = compose(outer, inner)
    assert 0x10 not in shadow
    assert shadow.translate(0x11) == 0x31


def test_compose_three_levels_associative():
    """Shadow construction for L3: compose(compose(l1, l2), l3) must equal
    translating through each table in turn (recursive virtual-passthrough,
    Figure 6)."""
    t3 = PageTable()  # L3 -> L2
    t2 = PageTable()  # L2 -> L1
    t1 = PageTable()  # L1 -> host
    t3.map(7, 70, Perm.RW)
    t2.map(70, 700, Perm.RW)
    t1.map(700, 7000, Perm.RW)
    shadow = compose(compose(t1, t2), t3)
    assert shadow.translate(7, Perm.W) == 7000
    step = t1.translate(t2.translate(t3.translate(7, Perm.W), Perm.W), Perm.W)
    assert step == 7000


def test_compose_splits_runs_at_outer_extents():
    inner = PageTable()
    outer = PageTable()
    inner.map(0, 100, Perm.RW, npages=8)
    outer.map(100, 1000, Perm.RW, npages=3)
    outer.map(105, 2000, Perm.R, npages=10)
    shadow = compose(outer, inner)
    assert shadow.extents() == [
        (0, 3, 1000, Perm.RW),
        (5, 3, 2000, Perm.R),
    ]
    assert 3 not in shadow and 4 not in shadow


def test_compose_runs_reports_first_missing_in_input_order():
    outer = PageTable()
    outer.map(100, 1000, Perm.RW, npages=4)
    runs = [(0, 4, 100, Perm.RW), (4, 2, 300, Perm.RW), (6, 2, 200, Perm.RW)]
    composed, missing = outer.compose_runs(runs)
    assert composed == [(0, 4, 1000, Perm.RW)]
    assert missing == 300
    assert outer.compose_runs(runs[:1]) == ([(0, 4, 1000, Perm.RW)], None)
