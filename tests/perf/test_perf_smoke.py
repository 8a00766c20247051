"""Quick host-performance smoke checks (tier-1 safe: small inputs).

``perf_engine.py`` holds the host-time floors; its recorded run lives in
``BENCH_engine.json`` (regenerated by ``make bench-perf``).  These tests
only assert that the cases run and that the engine clears a floor low
enough for any plausible CI host.  The ``--check`` tests judge one
measurement of the whole suite, taken once per session.
"""

import sys

import pytest

from benchmarks.perf import perf_engine

#: Deliberately far below real hardware (the engine does >1M events/s on
#: a modest 2020s core) so shared CI runners never flake.
SMOKE_MIN_EVENTS_PER_SEC = 20_000.0


def test_ping_pong_smoke_rate():
    stats = perf_engine.bench_ping_pong(pairs=2, rounds=2_000)
    assert stats["last_run_events"] >= 2 * 2 * 2_000
    assert stats["last_run_events_per_sec"] >= SMOKE_MIN_EVENTS_PER_SEC


def test_delay_chain_smoke_rate():
    stats = perf_engine.bench_delay_chain(rounds=20_000)
    assert stats["last_run_events"] >= 20_000
    # The uncontended path must be the cheap one.
    assert stats["inline_hits"] >= 20_000 - 1
    assert stats["last_run_events_per_sec"] >= SMOKE_MIN_EVENTS_PER_SEC


@pytest.fixture(scope="session")
def measured():
    """One run of every ``perf_engine`` case, shared by the ``--check``
    tests (each judges it with :func:`perf_engine.check`)."""
    return perf_engine.measure()


def test_check_mode_passes_on_this_host(measured):
    assert perf_engine.check(measured) == 0


def test_check_mode_fails_below_floor(measured, monkeypatch, capsys):
    monkeypatch.setattr(perf_engine, "MIN_EVENTS_PER_SEC", sys.float_info.max)
    assert perf_engine.check(measured) == 1
    assert "FAIL" in capsys.readouterr().err


def test_exit_path_simulates_every_exit():
    """One L3 hypercall is 332 exits (1 from L3, 17 from L2, 314 from
    L1): a trap-path speed-up may only cut host time, not exits.  With
    fast-forward off, every exit is dispatched in full."""
    stats = perf_engine.bench_exit_path(iterations=1)
    assert stats["exits"] == 332
    assert stats["dispatches"] == stats["exits"]
    assert stats["exits_per_host_s"] > 0


def test_dirty_write_drains_every_window():
    """Each drain after 1,024 writes of the sliding 64-page window finds
    all 1,024 pages of the span: recording is lazy, the pages are not."""
    stats = perf_engine.bench_dirty_write(writes=2_048)
    assert stats["pages_drained"] == 2 * 1_024
    assert stats["writes_per_host_s"] > 0
    assert stats["pages_drained_per_host_s"] > 0


def test_check_mode_fails_below_dirty_write_floor(measured, monkeypatch, capsys):
    monkeypatch.setattr(
        perf_engine, "MIN_DIRTY_WRITES_PER_SEC", sys.float_info.max
    )
    assert perf_engine.check(measured) == 1
    assert "dirty_write" in capsys.readouterr().err


def test_fabric_frames_delivers_every_frame():
    """Four stop-and-wait cross-rack flows of 50 frames each: every
    frame is delivered, whatever the transit runs ahead of the heap."""
    stats = perf_engine.bench_fabric_frames(frames=50)
    assert stats["frames"] == 4 * 50
    assert stats["frames_per_host_s"] > 0


def test_check_mode_fails_below_fabric_frames_floor(measured, monkeypatch, capsys):
    monkeypatch.setattr(
        perf_engine, "MIN_FABRIC_FRAMES_PER_SEC", sys.float_info.max
    )
    assert perf_engine.check(measured) == 1
    assert "fabric_frames" in capsys.readouterr().err


def test_stack_build_builds_every_stack():
    """Each fleet-host stack posts 128 buffers on each of its leaf
    driver's two RX rings."""
    stats = perf_engine.bench_stack_build(stacks=5)
    assert stats["stacks"] == 5
    assert stats["rx_buffers"] == 5 * 2 * 128
    assert stats["stacks_per_host_s"] > 0


def test_check_mode_fails_below_stack_build_floor(measured, monkeypatch, capsys):
    monkeypatch.setattr(perf_engine, "MIN_STACKS_PER_SEC", sys.float_info.max)
    assert perf_engine.check(measured) == 1
    assert "stack_build" in capsys.readouterr().err


def test_check_mode_fails_below_rr_floor(measured, monkeypatch, capsys):
    monkeypatch.setattr(perf_engine, "MIN_RR_TXNS_PER_SEC", sys.float_info.max)
    assert perf_engine.check(measured) == 1
    assert "request_capture" in capsys.readouterr().err
