"""Tests for the block datapath: drivers, backends, completion routing,
and the shared-used-ring race regression."""

import dataclasses

import pytest

from repro.core.features import DvhFeatures
from repro.hv.stack import StackConfig, build_stack


def make(levels=1, io="virtio", dvh=None, **kw):
    stack = build_stack(
        StackConfig(levels=levels, io_model=io, dvh=dvh or DvhFeatures.none(), **kw)
    )
    stack.settle()
    return stack


@pytest.mark.parametrize(
    "levels,io,dvh",
    [
        (0, "native", DvhFeatures.none()),
        (1, "virtio", DvhFeatures.none()),
        (2, "virtio", DvhFeatures.none()),
        (2, "vp", DvhFeatures.full()),
        (3, "virtio", DvhFeatures.none()),
    ],
)
def test_write_flush_completes(levels, io, dvh):
    stack = make(levels=levels, io=io, dvh=dvh)
    ctx = stack.ctx(0)
    log = {}

    def txn():
        req = yield from stack.blk.submit("write", 16384, ctx=ctx)
        yield from stack.blk.wait_for(req, ctx=ctx)
        flush = yield from stack.blk.submit("flush", 0, ctx=ctx)
        yield from stack.blk.wait_for(flush, ctx=ctx)
        log["done"] = stack.sim.now

    stack.sim.run_process(txn())
    assert log["done"] > stack.machine.costs.ssd_latency


def test_completion_routed_to_submitting_worker():
    """Two workers submit concurrently; each wakes for its own request."""
    stack = make(levels=2, io="virtio")
    done = {}

    def txn(i):
        ctx = stack.ctxs[i]
        req = yield from stack.blk.submit("write", 8192, ctx=ctx)
        yield from stack.blk.wait_for(req, ctx=ctx)
        done[i] = stack.sim.now

    for i in range(3):
        stack.sim.spawn(txn(i), f"t{i}")
    stack.sim.run()
    assert sorted(done) == [0, 1, 2]


def test_shared_used_ring_race_regression():
    """Regression: a worker that reaps a sibling's completion must
    publish it in the same instant, or the sibling sleeps through its
    own completion (was rescued only by a stray timer).  Many concurrent
    submitters across many rounds shake the interleavings out."""
    stack = make(levels=3, io="vp", dvh=DvhFeatures.full())
    finished = []

    def txn(i):
        ctx = stack.ctxs[i]
        yield i * 777  # stagger the workers
        for _ in range(12):
            req = yield from stack.blk.submit("write", 4096, ctx=ctx)
            yield from stack.blk.wait_for(req, ctx=ctx)
            flush = yield from stack.blk.submit("flush", 0, ctx=ctx)
            yield from stack.blk.wait_for(flush, ctx=ctx)
        finished.append(i)

    procs = [stack.sim.spawn(txn(i), f"t{i}") for i in range(4)]
    stack.sim.run()
    assert all(p.done for p in procs)
    assert len(finished) == 4
    # Nothing should have taken anywhere near a timer horizon to finish.
    assert stack.sim.now / stack.sim.freq_hz < 0.05


def test_ssd_serializes_requests():
    stack = make(levels=1, io="virtio")
    ctx = stack.ctx(0)
    times = []

    def txn():
        ids = []
        for _ in range(3):
            req = yield from stack.blk.submit("write", 65536, ctx=ctx)
            ids.append(req)
        for req in ids:
            yield from stack.blk.wait_for(req, ctx=ctx)
            times.append(stack.sim.now)

    stack.sim.run_process(txn())
    assert times[0] < times[1] < times[2]


def test_nested_blk_uses_guest_backend():
    """The nested chain relays block requests through the guest
    hypervisor's backend (charged as ghv_vhost work)."""
    stack = make(levels=2, io="virtio")
    ctx = stack.ctx(0)
    before = stack.metrics.copy()

    def txn():
        req = yield from stack.blk.submit("write", 16384, ctx=ctx)
        yield from stack.blk.wait_for(req, ctx=ctx)

    stack.sim.run_process(txn())
    delta = stack.metrics.diff(before)
    assert delta.cycles["ghv_vhost"] > 0
    # Submission trapped to the guest hypervisor (device provider 1).
    assert delta.forwards[(2, "mmio", 1)] >= 1


def test_vp_blk_skips_guest_hypervisor():
    stack = make(levels=2, io="vp", dvh=DvhFeatures.full())
    ctx = stack.ctx(0)
    before = stack.metrics.copy()

    def txn():
        req = yield from stack.blk.submit("write", 16384, ctx=ctx)
        yield from stack.blk.wait_for(req, ctx=ctx)

    stack.sim.run_process(txn())
    delta = stack.metrics.diff(before)
    assert sum(n for (*_, owner), n in delta.forwards.items() if owner == 1) == 0
