"""Unit tests for memory spaces and dirty logging."""

import pytest

from repro.hw.mem import PAGE_SIZE, DirtyLog, MemorySpace, page_of, pages_in_range


def test_page_of():
    assert page_of(0) == 0
    assert page_of(PAGE_SIZE - 1) == 0
    assert page_of(PAGE_SIZE) == 1


def test_pages_in_range_spanning():
    pages = list(pages_in_range(PAGE_SIZE - 1, 2))
    assert pages == [0, 1]
    assert list(pages_in_range(0, 0)) == []
    assert list(pages_in_range(0, PAGE_SIZE)) == [0]
    assert list(pages_in_range(100, 3 * PAGE_SIZE)) == [0, 1, 2, 3]


def test_read_write_roundtrip():
    mem = MemorySpace(1 << 20)
    mem.write(0x1000, "hello")
    assert mem.read(0x1000) == "hello"
    assert mem.read(0x2000) is None


def test_bounds_checking():
    mem = MemorySpace(0x1000)
    with pytest.raises(IndexError):
        mem.read(0x1000)
    with pytest.raises(IndexError):
        mem.write(-1, 0)
    with pytest.raises(IndexError):
        mem.write_range(0xF00, 0x200)


def test_zero_size_rejected():
    with pytest.raises(ValueError):
        MemorySpace(0)


def test_touched_pages_tracking():
    mem = MemorySpace(1 << 20)
    mem.write(0, 1)
    mem.write_range(2 * PAGE_SIZE, PAGE_SIZE * 2)
    assert mem.touched_pages == {0, 2, 3}


def test_dirty_log_attach_detach():
    mem = MemorySpace(1 << 20)
    log = DirtyLog()
    mem.write(0, 1)  # before attach: not logged
    mem.attach_dirty_log(log)
    mem.write(PAGE_SIZE, 2)
    mem.write_range(5 * PAGE_SIZE, 10)
    assert len(log) == 2
    mem.detach_dirty_log(log)
    mem.write(9 * PAGE_SIZE, 3)
    assert log.drain() == {1, 5}


def test_dirty_log_drain():
    mem = MemorySpace(1 << 20)
    log = DirtyLog()
    mem.attach_dirty_log(log)
    mem.write(0, 1)
    assert log.drain() == {0}
    assert len(log) == 0
    mem.write(PAGE_SIZE, 1)
    assert log.drain() == {1}


def test_multiple_dirty_logs():
    mem = MemorySpace(1 << 20)
    a, b = DirtyLog("a"), DirtyLog("b")
    mem.attach_dirty_log(a)
    mem.attach_dirty_log(b)
    mem.write(0, 1)
    assert a.drain() == b.drain() == {0}


def test_total_pages_rounds_up():
    assert MemorySpace(PAGE_SIZE).total_pages == 1
    assert MemorySpace(PAGE_SIZE + 1).total_pages == 2
