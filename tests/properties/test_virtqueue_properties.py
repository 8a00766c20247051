"""Property tests for virtqueue ring invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.devices.virtio import Virtqueue, VirtqueueFull


def free_descriptors(q):
    """Descriptors on the queue's free list plus those never handed out."""
    return len(q._free) + q._unused

ops = st.lists(
    st.sampled_from(["add", "pop", "push", "reap"]), min_size=1, max_size=200
)


@given(ops, st.sampled_from([4, 8, 16]))
def test_ring_invariants_under_random_op_sequences(sequence, size):
    """FIFO order, index monotonicity, and conservation of descriptors
    under arbitrary interleavings of driver and device operations."""
    q = Virtqueue(0, size)
    submitted = []  # payloads in avail order
    inflight = []  # popped by the device, not yet pushed used
    completed = []  # pushed used, not yet reaped
    reaped = []
    counter = 0
    for op in sequence:
        if op == "add":
            try:
                q.add_buffer(0x1000 * counter, 64, payload=counter)
                submitted.append(counter)
                counter += 1
            except VirtqueueFull:
                assert len(submitted) + len(inflight) + len(completed) >= size
        elif op == "pop":
            item = q.pop_avail()
            if submitted:
                assert item is not None
                desc_id, _a, _l, payload = item
                assert payload == submitted.pop(0)  # FIFO
                inflight.append((desc_id, payload))
            else:
                assert item is None
        elif op == "push" and inflight:
            desc_id, payload = inflight.pop(0)
            q.push_used(desc_id, 64)
            completed.append(payload)
        elif op == "reap":
            got = [p for (_d, _w, p) in q.reap_used()]
            assert got == completed  # FIFO completion order
            reaped.extend(got)
            completed = []
    # Conservation: every descriptor is in exactly one state.
    assert free_descriptors(q) == size - len(submitted) - len(inflight) - len(completed)
    # Index monotonicity.
    assert q.avail_idx >= q.last_avail >= 0
    assert q.used_idx >= q.last_used >= 0
    assert q.avail_idx == len(submitted) + len(inflight) + len(completed) + len(reaped)


@given(st.integers(min_value=1, max_value=1000))
def test_sustained_flow_never_leaks_descriptors(n):
    q = Virtqueue(0, 8)
    for i in range(n):
        q.add_buffer(0x1000, 64, payload=i)
        desc_id, _a, _l, p = q.pop_avail()
        assert p == i
        q.push_used(desc_id, 64)
        assert q.reap_used()[0][2] == i
    assert free_descriptors(q) == 8


# ----------------------------------------------------------------------
# Differential: descriptors made on first use vs the eager table
# ----------------------------------------------------------------------
class EagerQueue:
    """Reference model: every descriptor made up front and every id on
    one LIFO free stack (``list(range(size))``), as the queue's
    descriptor table behaved before descriptors were made on first
    use."""

    def __init__(self, size):
        self.size = size
        # [addr, length, in_use, payload] per descriptor.
        self.desc = [[0, 0, False, None] for _ in range(size)]
        self.free = list(range(size))
        self.avail = [0] * size
        self.avail_idx = self.last_avail = 0
        self.used = [(0, 0)] * size
        self.used_idx = self.last_used = 0

    def add_buffer(self, addr, length, payload):
        if not self.free or self.avail_idx - self.last_avail >= self.size:
            raise VirtqueueFull("full")
        desc_id = self.free.pop()
        self.desc[desc_id] = [addr, length, True, payload]
        self.avail[self.avail_idx % self.size] = desc_id
        self.avail_idx += 1
        return desc_id

    def pop_avail(self):
        if self.last_avail >= self.avail_idx:
            return None
        desc_id = self.avail[self.last_avail % self.size]
        self.last_avail += 1
        addr, length, _in_use, payload = self.desc[desc_id]
        return desc_id, addr, length, payload

    def push_used(self, desc_id, written, payload=None, replace=False):
        if not self.desc[desc_id][2]:
            raise ValueError(f"descriptor {desc_id} not in use")
        if replace:
            self.desc[desc_id][3] = payload
        self.used[self.used_idx % self.size] = (desc_id, written)
        self.used_idx += 1

    def reap_used(self):
        out = []
        while self.last_used < self.used_idx:
            desc_id, written = self.used[self.last_used % self.size]
            d = self.desc[desc_id]
            out.append((desc_id, written, d[3]))
            d[2], d[3] = False, None
            self.free.append(desc_id)
            self.last_used += 1
        return out

    def corrupt_next_avail(self, addr, length):
        if self.last_avail >= self.avail_idx:
            return False
        d = self.desc[self.avail[self.last_avail % self.size]]
        if addr is not None:
            d[0] = addr
        if length is not None:
            d[1] = length
        return True

    def prefill(self, addrs, length):
        """What ``Virtqueue.prefill`` must match: one ``add_buffer`` per
        address on a queue that never posted, all or nothing."""
        if self.avail_idx:
            raise ValueError("already posted")
        if len(addrs) > self.size:
            raise VirtqueueFull("full")
        for addr in addrs:
            self.add_buffer(addr, length, None)

    @property
    def free_descriptors(self):
        return len(self.free)


def _assert_same_table(lazy, eager):
    """The whole descriptor table and both rings agree entry by entry
    (reaped entries keep their addr and length on both sides)."""
    table = list(
        zip(lazy.desc_addr, lazy.desc_len, lazy.desc_in_use, lazy.desc_payload)
    )
    assert table == [tuple(d) for d in eager.desc]
    assert lazy.avail_ring == eager.avail
    assert lazy.used_ring == eager.used


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except (VirtqueueFull, ValueError) as exc:
        return "raised", type(exc)


maybe_int = st.one_of(st.none(), st.integers(0, 1 << 20))
queue_ops = st.one_of(
    st.tuples(st.just("add"), st.integers(1, 300), st.integers(0, 1 << 20)),
    st.tuples(st.just("pop"), st.integers(1, 300)),
    st.tuples(st.just("push_popped"), st.integers(1, 300), st.booleans()),
    st.tuples(st.just("push_any"), st.integers(0, 255), st.booleans()),
    st.tuples(st.just("reap")),
    st.tuples(st.just("corrupt"), maybe_int, maybe_int),
    st.tuples(st.just("prefill"), st.integers(0, 300), st.integers(1, 1 << 16)),
)


@settings(max_examples=300, deadline=None)
@given(
    size=st.sampled_from([1 << k for k in range(9)]),
    program=st.lists(queue_ops, max_size=60),
    fill=st.one_of(st.none(), st.integers(0, 300)),
)
def test_lazy_descriptors_match_eager_table(size, program, fill):
    """Ids, payloads, free counts and where ``VirtqueueFull`` (or the
    ``ValueError`` of completing an idle descriptor) is raised agree
    with the eager model, step by step.  The table and rings are made
    on the first post: until then none exists, and a never-posted queue
    pops nothing, reaps nothing, refuses every completion and has
    nothing to corrupt.  A ``prefill`` of ``n`` addresses (``fill``
    before the program, or a ``prefill`` op inside it) matches ``n``
    ``add_buffer`` calls on a queue that never posted, and raises
    ``ValueError`` on one that has."""
    lazy, eager = Virtqueue(0, size), EagerQueue(size)
    popped = []  # ids the device took, not yet completed
    counter = 0

    def step(lazy_call, eager_call):
        got, want = lazy_call(), eager_call()
        assert got == want
        assert free_descriptors(lazy) == eager.free_descriptors
        assert lazy.avail_pending == eager.avail_idx - eager.last_avail
        assert lazy.used_idx - lazy.last_used == eager.used_idx - eager.last_used
        rings = (
            lazy.desc_addr,
            lazy.desc_len,
            lazy.desc_in_use,
            lazy.desc_payload,
            lazy.avail_ring,
            lazy.used_ring,
        )
        if eager.avail_idx:
            assert None not in rings
        else:
            assert rings == (None,) * len(rings)
        return got

    def prefill(count, length):
        addrs = range(0x4000_0000, 0x4000_0000 + count * 0x1000, 0x1000)
        step(
            lambda: _outcome(lazy.prefill, addrs, length),
            lambda: _outcome(eager.prefill, addrs, length),
        )
        if eager.avail_idx:
            _assert_same_table(lazy, eager)

    step(lazy.pop_avail, eager.pop_avail)
    assert lazy.pop_avail() is None
    step(lazy.reap_used, eager.reap_used)
    assert lazy.reap_used() == []
    for desc_id in {0, size - 1}:
        step(
            lambda: _outcome(lazy.push_used, desc_id, 64),
            lambda: _outcome(eager.push_used, desc_id, 64),
        )
        with pytest.raises(ValueError, match="not in use"):
            lazy.push_used(desc_id, 64, payload="rx")
    step(
        lambda: lazy.corrupt_next_avail(1, 1),
        lambda: eager.corrupt_next_avail(1, 1),
    )
    assert lazy.corrupt_next_avail(1, 1) is False
    if fill is not None:
        prefill(fill, 1500)

    for op, *args in program:
        if op == "add":
            count, addr = args
            for _ in range(count):
                counter += 1
                payload = ("buf", counter)
                kind, _ = step(
                    lambda: _outcome(lazy.add_buffer, addr + counter, 64, payload),
                    lambda: _outcome(eager.add_buffer, addr + counter, 64, payload),
                )
                if kind == "raised":
                    break
        elif op == "pop":
            for _ in range(args[0]):
                item = step(lazy.pop_avail, eager.pop_avail)
                if item is None:
                    break
                popped.append(item[0])
        elif op in ("push_popped", "push_any"):
            if op == "push_popped":
                ids = popped[: args[0]]
                del popped[: args[0]]
            else:
                ids = [args[0] % size]
            replace = args[1]
            for desc_id in ids:
                counter += 1
                data = ("rx", counter)
                step(
                    lambda: _outcome(
                        lazy.push_used, desc_id, 64, *((data,) if replace else ())
                    ),
                    lambda: _outcome(eager.push_used, desc_id, 64, data, replace),
                )
        elif op == "reap":
            step(lazy.reap_used, eager.reap_used)
        elif op == "prefill":
            prefill(*args)
        else:
            # The malformed fields show up in the next pop's tuple.
            addr, length = args
            step(
                lambda: lazy.corrupt_next_avail(addr, length),
                lambda: eager.corrupt_next_avail(addr, length),
            )
    if eager.avail_idx:
        _assert_same_table(lazy, eager)
