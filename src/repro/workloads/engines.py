"""Workload engines: closed-loop request/response, bulk streaming, IPC.

Three engines cover the paper's seven application benchmarks (Table 2):

* :func:`run_rr` — closed-loop request/response with a remote client
  (netperf TCP_RR, Apache+ab, memcached+memtier, MySQL+SysBench);
* :func:`run_stream` — bulk transfer in either direction with windowed
  flow control (netperf TCP_STREAM / TCP_MAERTS);
* :func:`run_hackbench` — pure scheduler/IPC load, no network.

Engines drive the *real* simulated datapaths: driver rings, doorbell
exits, backend relays, interrupt chains, timers, IPIs and idle all take
their configuration-dependent costs, so the Figure 7/8/9/10 shapes
emerge from the same mechanisms as in the paper.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Generator, List

from repro.hw.lapic import IPI_RESCHEDULE_VECTOR, VIRTIO_VECTOR_BASE
from repro.metrics.hist import Histogram, exact_percentile

__all__ = ["RRSpec", "StreamSpec", "HackbenchSpec", "AppResult",
           "run_rr", "run_stream", "run_hackbench"]

#: Protocol (Ethernet+IP+TCP) header overhead on the wire.
WIRE_OVERHEAD = 1.062
#: Far-future timer deadline used by re-arming paths (10 ms).
TIMER_HORIZON_S = 0.010


@dataclass
class AppResult:
    """Outcome of one workload run."""

    name: str
    value: float
    unit: str
    higher_is_better: bool
    elapsed_s: float
    txns: int
    #: Per-transaction client-observed latencies in cycles (closed-loop
    #: request/response workloads only; empty otherwise).
    latencies: List[int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.latencies is None:
            self.latencies = []

    def latency_percentile(self, p: float) -> float:
        """Client-observed transaction latency percentile, in seconds
        (assumes the 2.2 GHz simulated clock).  The nearest-rank math
        lives in :func:`repro.metrics.hist.exact_percentile`."""
        if not self.latencies:
            raise ValueError(f"{self.name} recorded no latencies")
        return exact_percentile(self.latencies, p) / 2.2e9

    @property
    def mean_latency_s(self) -> float:
        if not self.latencies:
            raise ValueError(f"{self.name} recorded no latencies")
        return sum(self.latencies) / len(self.latencies) / 2.2e9

    def latency_histogram(self) -> Histogram:
        """The recorded latencies bucketed into a mergeable
        :class:`~repro.metrics.hist.Histogram` (cycles)."""
        hist = Histogram()
        for lat in self.latencies:
            hist.record(lat)
        return hist

    def overhead_vs(self, native: "AppResult") -> float:
        """The paper's Figure 7 y-axis: performance overhead relative to
        native execution (1.0 = native speed; lower is better).

        Elapsed-time metrics are normalized per transaction so runs with
        different (scaled) transaction counts compare correctly.
        """
        if self.higher_is_better:
            return native.value / self.value
        return (self.value / self.txns) / (native.value / native.txns)


# ======================================================================
# Request/response engine
# ======================================================================
@dataclass
class RRSpec:
    """A closed-loop request/response workload."""

    name: str
    txns: int
    concurrency: int
    queries_per_txn: int = 1
    request_size: int = 64
    response_size: int = 64
    response_seg: int = 16384  # segmentation of large responses
    kick_every: int = 1  # TX doorbell batching
    acks_per_query: int = 0  # bare TCP ACK segments sent per query
    compute: int = 6000  # worker cycles per query
    ipi_rate: float = 0.0  # IPIs per query (wakeups, locking)
    timer_rate: float = 1.0  # timer programmings per query
    blk_per_txn: int = 0  # flush-writes at transaction end (MySQL)
    blk_size: int = 16384
    workers: int = 4
    unit: str = "trans/s"
    higher_is_better: bool = True
    metric: str = "tps"  # or "elapsed"
    #: Arrival model: "closed" (each completion triggers the next
    #: transaction — the classic netperf shape) or "poisson" (open
    #: loop: transactions arrive at ``offered_tps`` regardless of
    #: completions, so queueing delay shows up in the latency tail —
    #: the million-user model a closed loop structurally hides).
    arrival: str = "closed"
    offered_tps: float = 0.0  # open-loop offered load, transactions/s


class _RRState:
    __slots__ = (
        "done",
        "done_event",
        "completed",
        "next_txn",
        "started",
        "t0",
        "rx_bytes",
        "txn_start",
        "txn_enqueue",
        "pending",
        "outstanding",
        "latencies",
    )

    def __init__(self, sim):
        self.done = False
        self.done_event = sim.event("rr-done")
        self.completed = 0
        self.next_txn = 0
        self.started = 0
        self.t0 = 0
        self.rx_bytes: Dict[int, int] = {}  # txn -> response bytes seen
        self.txn_start: Dict[int, int] = {}  # txn -> first-query send time
        self.txn_enqueue: Dict[int, int] = {}  # txn -> arrival time (open loop)
        self.pending: Deque[int] = deque()  # arrival times awaiting a slot
        self.outstanding = 0  # transactions in flight (open loop)
        self.latencies: List[int] = []


def run_rr(stack, spec: RRSpec, settle: bool = True) -> AppResult:
    """Run a request/response workload on a built stack.

    ``settle=False`` skips the initial drain — use when other processes
    (e.g. a live migration) must run concurrently with the workload."""
    sim = stack.sim
    machine = stack.machine
    costs = machine.costs
    net = stack.net
    workers = min(spec.workers, len(stack.ctxs))
    state = _RRState(sim)
    if spec.arrival not in ("closed", "poisson"):
        raise ValueError(f"unknown arrival model {spec.arrival!r}")
    open_loop = spec.arrival == "poisson"
    if open_loop and spec.offered_tps <= 0:
        raise ValueError("poisson arrivals need offered_tps > 0")
    #: Request-lifecycle capture, or None = off (the default): every
    #: observation below is behind a None check, so the off path does
    #: no extra work — same zero-cost contract as span tracing.
    cap = machine.request_capture

    # RSS: queue i -> worker i.
    for i in range(workers):
        net.bind_queue(i, stack.ctxs[i], VIRTIO_VECTOR_BASE + i)

    # Steady-state fast-forward: transaction completions are the epoch
    # boundaries.  Only the strictly periodic shape is eligible — a
    # single closed loop, one worker, one query per transaction, and
    # integer per-query IPI/timer rates (fractional credit accumulators
    # carry hidden state across transactions, so consecutive epochs are
    # not identical even when two adjacent deltas match).
    ff = sim.ff
    ff_src = None
    if (
        ff.enabled
        and spec.arrival == "closed"
        and spec.concurrency == 1
        and workers == 1
        and spec.queries_per_txn == 1
        and spec.blk_per_txn == 0
        and float(spec.ipi_rate).is_integer()
        and float(spec.timer_rate).is_integer()
    ):
        ff_src = ff.source(f"rr:{spec.name}")

    # ------------------------------------------------------------------
    # Client (remote machine, never the bottleneck)
    # ------------------------------------------------------------------
    def send_query(txn_id: int, q_idx: int) -> None:
        machine.client.send(
            stack.flow,
            spec.request_size,
            payload=("req", txn_id, q_idx),
            queue_hint=txn_id % workers,
        )

    def start_txn() -> None:
        if state.started >= spec.txns:
            return
        if ff_src is not None and state.latencies:
            # Transaction *starts* are the epoch boundaries: in the
            # halt-wake phase of the cycle the server worker is parked
            # on its wakeup event here (nothing of the steady state
            # sits live on the heap), so whole cycles can be skipped.
            # On a skip the clock and metrics have already advanced;
            # replay the client-side bookkeeping: skipped transactions
            # consume ids and record the fingerprinted latencies, so
            # the tail transactions run micro-step with the same ids a
            # full run would use.
            n = ff_src.observe(
                spec.txns - state.completed, extra=state.latencies[-1]
            )
            if n:
                state.completed += n
                state.next_txn += n
                state.started += n
                state.latencies.extend(ff_src.skipped_extras)
        txn_id = state.next_txn
        state.next_txn += 1
        state.started += 1
        state.txn_start[txn_id] = sim.now
        send_query(txn_id, 0)

    # ------------------------------------------------------------------
    # Open-loop (Poisson) arrivals: transactions arrive on their own
    # clock; at most ``concurrency`` are in flight, the rest queue at
    # the client with their arrival time — so the latency a request
    # observes includes the time it spent waiting for a slot.
    # ------------------------------------------------------------------
    def dispatch(enqueue_at: int) -> None:
        txn_id = state.next_txn
        state.next_txn += 1
        state.started += 1
        state.txn_enqueue[txn_id] = enqueue_at
        state.txn_start[txn_id] = sim.now
        send_query(txn_id, 0)

    def arrive() -> None:
        if state.done:
            return
        if state.outstanding < spec.concurrency:
            state.outstanding += 1
            dispatch(sim.now)
        else:
            state.pending.append(sim.now)

    def on_response(packet) -> None:
        kind, txn_id, q_idx = packet.payload
        if kind != "resp":
            return  # bare ACK segments carry no transaction progress
        seen = state.rx_bytes.get(txn_id, 0) + packet.size
        state.rx_bytes[txn_id] = seen
        if seen < spec.response_size:
            return  # more segments of this response to come
        state.rx_bytes[txn_id] = 0
        if q_idx + 1 < spec.queries_per_txn:
            sim.call_after(
                costs.client_turnaround, lambda: send_query(txn_id, q_idx + 1)
            )
            return
        state.completed += 1
        start = state.txn_start.pop(txn_id, sim.now)
        enq = state.txn_enqueue.pop(txn_id, start) if open_loop else start
        state.latencies.append(sim.now - enq)
        if cap is not None:
            cap.observe(enq, sim.now)
        if state.completed >= spec.txns:
            state.done = True
            state.done_event.trigger(sim.now)
            for ctx in stack.ctxs[:workers]:
                ctx.lapic.set_irr(IPI_RESCHEDULE_VECTOR)
                ctx.pcpu.wake()
        elif open_loop:
            state.outstanding -= 1
            if state.pending:
                state.outstanding += 1
                queued_at = state.pending.popleft()
                sim.call_after(
                    costs.client_turnaround, lambda: dispatch(queued_at)
                )
        else:
            sim.call_after(costs.client_turnaround, start_txn)

    machine.client.on_receive(stack.flow, on_response)

    # ------------------------------------------------------------------
    # Server workers
    # ------------------------------------------------------------------
    timer_horizon = sim.cycles(TIMER_HORIZON_S)

    def worker(i: int) -> Generator:
        ctx = stack.ctxs[i]
        ipi_credit = 0.0
        timer_credit = 0.0
        while not state.done:
            # NAPI-style: poll first, sleep only when the queue is empty
            # (interrupts may have been consumed while blocked on I/O).
            msgs = yield from net.poll_rx(queue=i, ctx=ctx)
            if not msgs:
                yield from ctx.wait_for_interrupt()
                if state.done:
                    break
                yield from ctx.irq_work()
                continue
            for _size, payload in msgs:
                if not payload or payload[0] != "req":
                    continue
                _kind, txn_id, q_idx = payload
                yield from ctx.compute(spec.compute)
                ipi_credit += spec.ipi_rate
                while ipi_credit >= 1.0:
                    ipi_credit -= 1.0
                    yield from ctx.send_ipi(
                        (i + 1) % workers, IPI_RESCHEDULE_VECTOR
                    )
                timer_credit += spec.timer_rate
                while timer_credit >= 1.0:
                    timer_credit -= 1.0
                    yield from ctx.program_timer(ctx.read_tsc() + timer_horizon)
                for _ in range(spec.acks_per_query):
                    yield from net.send(
                        64, payload=("ack", txn_id, q_idx), kick=True,
                        queue=i, ctx=ctx,
                    )
                if spec.blk_per_txn and q_idx == spec.queries_per_txn - 1:
                    for _ in range(spec.blk_per_txn):
                        req = yield from stack.blk.submit(
                            "write", spec.blk_size, ctx=ctx
                        )
                        yield from stack.blk.wait_for(req, ctx=ctx)
                        flush = yield from stack.blk.submit("flush", 0, ctx=ctx)
                        yield from stack.blk.wait_for(flush, ctx=ctx)
                # Response, segmented, with batched doorbells.
                remaining = spec.response_size
                seg_idx = 0
                while remaining > 0:
                    seg = min(spec.response_seg, remaining)
                    remaining -= seg
                    seg_idx += 1
                    kick = (seg_idx % spec.kick_every == 0) or remaining <= 0
                    yield from net.send(
                        seg,
                        payload=("resp", txn_id, q_idx),
                        kick=kick,
                        queue=i,
                        ctx=ctx,
                    )

    # ------------------------------------------------------------------
    if settle:
        stack.settle()
    state.t0 = sim.now
    for i in range(workers):
        sim.spawn(worker(i), f"{spec.name}-w{i}")
    if open_loop:
        # Draw the whole arrival schedule up front (like the control
        # plane draws its randomness in construction): the generator is
        # derived from the simulator's seeded stream, so the schedule
        # is a pure function of the run's seed.
        arrivals = random.Random(sim.rng.getrandbits(64))
        when = sim.now
        for _ in range(spec.txns):
            when += max(1, sim.cycles(arrivals.expovariate(spec.offered_tps)))
            sim.call_at(when, arrive)
    else:
        for _ in range(spec.concurrency):
            start_txn()
    sim.run()
    if not state.done:
        raise RuntimeError(f"{spec.name}: workload did not complete")
    elapsed = sim.seconds(state.done_event.value - state.t0)
    if spec.metric == "elapsed":
        value = elapsed
    else:
        value = spec.txns / elapsed
    return AppResult(
        name=spec.name,
        value=value,
        unit=spec.unit,
        higher_is_better=spec.higher_is_better,
        elapsed_s=elapsed,
        txns=spec.txns,
        latencies=state.latencies,
    )


# ======================================================================
# Streaming engine (TCP_STREAM / TCP_MAERTS)
# ======================================================================
@dataclass
class StreamSpec:
    """Bulk one-way transfer with windowed flow control."""

    name: str
    direction: str  # "rx" (STREAM: client->server) or "tx" (MAERTS)
    msgs: int = 600
    msg_size: int = 16384
    ack_every: int = 2  # ACK (or window update) per this many msgs
    compute_per_msg: int = 1500
    window: int = 262144  # in-flight byte limit
    unit: str = "Mb/s"
    higher_is_better: bool = True


def run_stream(stack, spec: StreamSpec) -> AppResult:
    sim = stack.sim
    machine = stack.machine
    net = stack.net
    ctx = stack.ctxs[0]
    state: Dict[str, Any] = {
        "done": False,
        "done_at": 0,
        "rx_msgs": 0,
        "rx_bytes": 0,
        "in_flight": 0,
        "sent": 0,
        "acked_msgs": 0,
    }
    done_event = sim.event("stream-done")
    # Per-message send -> processed latency capture (None = off; the
    # send-time dict is only populated when capture is on).
    cap = machine.request_capture
    sent_at: Dict[int, int] = {}

    def finish() -> None:
        state["done"] = True
        state["done_at"] = sim.now
        done_event.trigger(sim.now)
        ctx.lapic.set_irr(IPI_RESCHEDULE_VECTOR)
        ctx.pcpu.wake()

    if spec.direction == "rx":
        # Client streams to the server, self-clocked by the wire.
        def pump() -> None:
            if state["sent"] >= spec.msgs or state["done"]:
                return
            if state["in_flight"] >= spec.window:
                return
            state["sent"] += 1
            state["in_flight"] += spec.msg_size
            if cap is not None:
                sent_at[state["sent"]] = sim.now
            machine.client.send(
                stack.flow,
                spec.msg_size,
                payload=("data", state["sent"]),
                wire_size=int(spec.msg_size * WIRE_OVERHEAD),
            )
            machine.sim.call_after(1, pump)

        def on_ack(packet) -> None:
            # Each ACK covers ack_every messages.
            state["in_flight"] = max(
                0, state["in_flight"] - spec.ack_every * spec.msg_size
            )
            pump()

        machine.client.on_receive(stack.flow, on_ack)

        def server() -> Generator:
            unacked = 0
            while not state["done"]:
                yield from ctx.wait_for_interrupt()
                if state["done"]:
                    break
                yield from ctx.irq_work()
                msgs = yield from net.poll_rx(queue=0, ctx=ctx)
                for size, payload in msgs:
                    if not payload or payload[0] != "data":
                        continue
                    yield from ctx.compute(spec.compute_per_msg)
                    state["rx_msgs"] += 1
                    state["rx_bytes"] += size
                    if cap is not None:
                        sent = sent_at.pop(payload[1], sim.now)
                        cap.observe(sent, sim.now)
                    unacked += 1
                    if unacked >= spec.ack_every or state["rx_msgs"] >= spec.msgs:
                        unacked = 0
                        yield from net.send(
                            64, payload=("ack", state["rx_msgs"]), kick=True,
                            queue=0, ctx=ctx,
                        )
                    if state["rx_msgs"] >= spec.msgs:
                        finish()
                        break

        stack.settle()
        t0 = sim.now
        sim.spawn(server(), f"{spec.name}-server")
        pump()
        sim.run()
        if not state["done"]:
            raise RuntimeError(f"{spec.name}: stream did not complete")
        elapsed = sim.seconds(state["done_at"] - t0)
        mbps = state["rx_bytes"] * 8 / 1e6 / elapsed

    else:  # "tx" — MAERTS: server -> client
        def on_client_rx(packet) -> None:
            if packet.payload and packet.payload[0] == "data":
                state["rx_msgs"] += 1
                state["rx_bytes"] += packet.size
                if cap is not None:
                    sent = sent_at.pop(packet.payload[1], sim.now)
                    cap.observe(sent, sim.now)
                if state["rx_msgs"] % spec.ack_every == 0:
                    machine.client.send(
                        stack.flow, 64, payload=("ack", state["rx_msgs"])
                    )
                if state["rx_msgs"] >= spec.msgs:
                    finish()

        machine.client.on_receive(stack.flow, on_client_rx)

        def server() -> Generator:
            while state["sent"] < spec.msgs and not state["done"]:
                if state["in_flight"] + spec.msg_size > spec.window:
                    yield from ctx.wait_for_interrupt()
                    if state["done"]:
                        break
                    yield from ctx.irq_work()
                    acked = yield from net.poll_rx(queue=0, ctx=ctx)
                    for _size, payload in acked:
                        if payload and payload[0] == "ack":
                            state["in_flight"] = max(
                                0,
                                state["in_flight"]
                                - spec.ack_every * spec.msg_size,
                            )
                    continue
                state["sent"] += 1
                state["in_flight"] += spec.msg_size
                if cap is not None:
                    sent_at[state["sent"]] = sim.now
                yield from ctx.compute(spec.compute_per_msg)
                yield from net.send(
                    spec.msg_size,
                    payload=("data", state["sent"]),
                    kick=True,
                    queue=0,
                    ctx=ctx,
                )

        stack.settle()
        t0 = sim.now
        sim.spawn(server(), f"{spec.name}-server")
        sim.run()
        if not state["done"]:
            raise RuntimeError(f"{spec.name}: stream did not complete")
        elapsed = sim.seconds(state["done_at"] - t0)
        mbps = state["rx_bytes"] * 8 / 1e6 / elapsed

    return AppResult(
        name=spec.name,
        value=mbps,
        unit=spec.unit,
        higher_is_better=spec.higher_is_better,
        elapsed_s=elapsed,
        txns=spec.msgs,
    )


# ======================================================================
# Hackbench engine (scheduler/IPC, no network)
# ======================================================================
@dataclass
class HackbenchSpec:
    """Pure IPC/scheduling load: groups of senders/receivers exchanging
    messages over sockets — CPU work, wakeup IPIs, and idle blocking."""

    name: str = "hackbench"
    items: int = 1200
    item_cycles: int = 20000
    block_every: int = 3  # a worker blocks after this many items
    workers: int = 4
    unit: str = "seconds"
    higher_is_better: bool = False


def run_hackbench(stack, spec: HackbenchSpec) -> AppResult:
    sim = stack.sim
    workers = min(spec.workers, len(stack.ctxs))
    state: Dict[str, Any] = {"remaining": spec.items, "waiting": set(), "active": workers}
    cap = stack.machine.request_capture

    def wake_all_waiting() -> None:
        for w in list(state["waiting"]):
            state["waiting"].discard(w)
            ctx = stack.ctxs[w]
            ctx.lapic.set_irr(IPI_RESCHEDULE_VECTOR)
            ctx.pcpu.wake()

    def worker(i: int) -> Generator:
        ctx = stack.ctxs[i]
        processed = 0
        while state["remaining"] > 0:
            state["remaining"] -= 1
            item_t0 = sim.now
            yield from ctx.compute(spec.item_cycles)
            if cap is not None:
                cap.observe(item_t0, sim.now)
            processed += 1
            # Writing into the peer's socket wakes it if it was blocked.
            nxt = (i + 1) % workers
            if nxt in state["waiting"]:
                state["waiting"].discard(nxt)
                yield from ctx.send_ipi(nxt, IPI_RESCHEDULE_VECTOR)
            # Periodically this worker's own socket runs dry: block.
            if (
                processed % spec.block_every == 0
                and state["remaining"] > 0
                and len(state["waiting"]) < workers - 1
            ):
                state["waiting"].add(i)
                yield from ctx.wait_for_interrupt()
                state["waiting"].discard(i)
        state["active"] -= 1
        wake_all_waiting()

    stack.settle()
    t0 = sim.now
    procs = [sim.spawn(worker(i), f"hackbench-w{i}") for i in range(workers)]
    sim.run()
    if any(not p.done for p in procs):
        raise RuntimeError("hackbench deadlocked")
    elapsed = sim.seconds(sim.now - t0)
    return AppResult(
        name=spec.name,
        value=elapsed,
        unit=spec.unit,
        higher_is_better=False,
        elapsed_s=elapsed,
        txns=spec.items,
    )
