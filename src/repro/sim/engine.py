"""Deterministic discrete-event simulation engine.

The whole reproduction runs on this engine.  Time is measured in CPU
*cycles* (integers) of the simulated machine's base clock, matching how the
paper reports microbenchmark costs (Table 3 is in cycles).  All concurrency
is expressed as generator-based processes; the engine is fully
deterministic: event ordering ties are broken by a monotonically increasing
sequence number and the only randomness comes from a seeded ``random.Random``
owned by the simulator.

Process protocol
----------------
A *process* is a Python generator.  It may yield:

``int`` or ``float``
    Sleep for that many cycles.
``Event``
    Suspend until the event is triggered; the ``yield`` expression
    evaluates to the value passed to :meth:`Event.trigger`.
``Process``
    Join another process; the ``yield`` evaluates to its return value.

Sub-routines compose with plain ``yield from``, which is how the hypervisor
exit-handler chains in :mod:`repro.hv` nest arbitrarily deep.

Fast-forward
------------
Each simulator owns a :class:`~repro.sim.fastforward.FastForward` manager
(``sim.ff``), switched on or off by the ``fast_forward`` argument.
Periodic workloads register sources with it; once a source proves its
epochs identical, it collapses runs of them: :meth:`Simulator.ff_scan`
finds the window free of live work, and :meth:`Simulator.ff_shift`
jumps the clock over it, carrying mid-cycle sleepers along.  Cancellable
timers (:meth:`Simulator.timer_at`) exist so re-armed hrtimers leave
only *inert* heap entries behind instead of stale closures that would
block every fast-forward window.
"""

from __future__ import annotations

import heapq
import os
import random
from collections import deque
from time import perf_counter
from typing import Any, Callable, Deque, Dict, Generator, Iterator, List, Optional, Tuple

from repro.sim.fastforward import FastForward

__all__ = ["Simulator", "Event", "Process", "TimerHandle", "SimulationError"]

#: Cycles per second of the simulated machine (2.2 GHz Xeon Silver 4114,
#: the paper's testbed CPU).
DEFAULT_FREQ_HZ = 2_200_000_000

def fast_forward_default() -> bool:
    """Module default for :class:`Simulator`'s ``fast_forward`` argument.

    ``REPRO_FAST_FORWARD=0`` steps every event everywhere: no epoch
    skipping, no :meth:`Simulator.run_ahead_limit` shortcut.  Read at
    construction time (not import time) so the CLI's ``--no-fast-forward``
    flag — and worker subprocesses inheriting the environment — take
    effect after imports.
    """
    return os.environ.get("REPRO_FAST_FORWARD", "").strip().lower() not in (
        "0",
        "false",
        "no",
        "off",
    )


class SimulationError(RuntimeError):
    """Raised for violations of the engine's protocol (bad yields, etc.)."""


class Event:
    """A one-shot waitable event.

    Processes wait on an event by yielding it.  Triggering wakes all
    waiters at the current simulation time (in deterministic FIFO order)
    and records a value that each waiter's ``yield`` evaluates to.
    Waiting on an already-triggered event resumes immediately.
    """

    __slots__ = ("sim", "name", "triggered", "value", "_waiters")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._waiters: List["Process"] = []

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking all waiters at the current time."""
        if self.triggered:
            return
        self.triggered = True
        self.value = value
        waiters = self._waiters
        if waiters:
            sim = self.sim
            seq = sim._seq
            ready = sim._ready
            for proc in waiters:
                seq += 1
                ready.append((seq, proc, value))
            sim._seq = seq
            self._waiters = []

    def _add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            self.sim._resume(proc, self.value)
        else:
            self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "set" if self.triggered else "pending"
        return f"<Event {self.name or hex(id(self))} {state}>"


class Process:
    """A running generator, scheduled by the simulator."""

    __slots__ = ("sim", "name", "gen", "done", "result", "cancelled", "_joiners")

    def __init__(self, sim: "Simulator", gen: Generator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.gen = gen
        self.done = False
        self.cancelled = False
        self.result: Any = None
        self._joiners: List["Process"] = []

    def cancel(self) -> bool:
        """Stop the process; it never runs again.  Joiners resume with
        ``None``.  Returns False if it had already finished."""
        if self.done:
            return False
        self.done = True
        self.cancelled = True
        self.gen.close()
        for joiner in self._joiners:
            self.sim._resume(joiner, None)
        self._joiners.clear()
        return True

    def _add_joiner(self, proc: "Process") -> None:
        if self.done:
            self.sim._resume(proc, self.result)
        else:
            self._joiners.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return f"<Process {self.name} {state}>"


class TimerHandle:
    """A cancellable scheduled callback (see :meth:`Simulator.timer_at`).

    Cancellation is O(1): ``fn`` is cleared and the heap entry goes
    *inert*.  The run loop drains inert entries without executing
    anything (still advancing the clock to them, exactly like the stale
    guard closures they replace), and the fast-forward machinery may
    purge them from a skip window entirely — a cancelled timer is always
    superseded by a strictly-later re-arm, so it can never determine the
    final simulation time.
    """

    __slots__ = ("when", "fn")

    def __init__(self, when: int, fn: Optional[Callable[[], None]]) -> None:
        self.when = when
        self.fn = fn

    def cancel(self) -> None:
        self.fn = None

    @property
    def active(self) -> bool:
        return self.fn is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "armed" if self.fn is not None else "cancelled"
        return f"<TimerHandle @{self.when} {state}>"


class Simulator:
    """The discrete-event simulator: clock, event heap, process scheduler.

    Scheduling uses two structures that together form one totally ordered
    queue (ties broken by a global sequence number, so ordering is exactly
    FIFO among same-time work):

    * ``_heap`` — ``(when, seq, item)`` records for *future* work, where
      ``item`` is a plain callable (:meth:`call_at`), a
      :class:`TimerHandle` (:meth:`timer_at`), or a :class:`Process` to
      resume with ``None`` (a delay yield);
    * ``_ready`` — a FIFO deque of ``(seq, process, value)`` resume
      records for work at the *current* time (event triggers, joins,
      spawns).  Draining these from a deque instead of the heap is the
      engine's fast path: no per-resume closure allocation and no
      O(log n) heap churn for the zero-delay resumes that dominate
      generator-based workloads.

    The run loop advances the clock *inline* when a process yields a
    delay and nothing else can possibly run before that delay expires
    (ready queue empty, heap top strictly later), and *chains* through
    same-time event waits: when a process parks on an un-triggered event
    while a resume is already queued at this timestamp (the ping-pong
    shape), the loop steps straight into the resumed process without
    bouncing through the outer scheduler.
    """

    def __init__(
        self,
        freq_hz: int = DEFAULT_FREQ_HZ,
        seed: int = 0,
        fast_forward: Optional[bool] = None,
    ) -> None:
        self.freq_hz = int(freq_hz)
        self.now = 0
        self.rng = random.Random(seed)
        self._heap: List[Tuple[int, int, Any]] = []
        self._ready: Deque[Tuple[int, "Process", Any]] = deque()
        self._seq = 0
        self._event_count = 0
        self._ready_hits = 0
        self._heap_hits = 0
        self._inline_hits = 0
        self._last_run_events = 0
        self._last_run_wall_s = 0.0
        #: ``until`` and ``max_events`` of the :meth:`run` call in
        #: progress (None: unbounded or not running).  Work that
        #: collapses many steps into one reads them through
        #: :meth:`run_ahead_limit`, so state read at a ``run(until=)`` or
        #: ``run(max_events=)`` return is the micro-stepped state.
        self._until: Optional[int] = None
        self._max_events: Optional[int] = None
        #: Steps the :meth:`run_ahead_limit` shortcuts applied without
        #: an engine event of their own.
        self.exits_batched = 0
        self.dirtier_bursts_merged = 0
        self.transit_hops_ahead = 0
        if fast_forward is None:
            fast_forward = fast_forward_default()
        self.ff = FastForward(self, enabled=bool(fast_forward))

    # ------------------------------------------------------------------
    # Time helpers
    # ------------------------------------------------------------------
    @property
    def now_seconds(self) -> float:
        """Current simulated time in seconds."""
        return self.now / self.freq_hz

    def cycles(self, seconds: float) -> int:
        """Convert seconds to cycles of the simulated clock."""
        return int(round(seconds * self.freq_hz))

    def seconds(self, cycles: int) -> float:
        """Convert cycles of the simulated clock to seconds."""
        return cycles / self.freq_hz

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: int, value: Any = None, name: str = "timeout") -> Event:
        """An event that triggers ``delay`` cycles from now."""
        ev = Event(self, name)
        self.call_after(delay, lambda: ev.trigger(value))
        return ev

    def call_at(self, when: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute time ``when`` (cycles)."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now {self.now}"
            )
        self._seq += 1
        heapq.heappush(self._heap, (int(when), self._seq, fn))

    def call_after(self, delay: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` cycles."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.call_at(self.now + int(delay), fn)

    def timer_at(self, when: int, fn: Callable[[], None]) -> TimerHandle:
        """Schedule ``fn`` at ``when`` with O(1) cancellation.

        Use this for anything re-armed repeatedly (hrtimers): cancelling
        leaves an inert heap entry instead of a live stale closure, so
        fast-forward windows stay open across re-arm churn.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now {self.now}"
            )
        handle = TimerHandle(int(when), fn)
        self._seq += 1
        heapq.heappush(self._heap, (handle.when, self._seq, handle))
        return handle

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        """Start a new process from generator ``gen``; runs from time now."""
        if not isinstance(gen, Iterator):
            raise SimulationError(
                f"spawn() needs a generator, got {type(gen).__name__}"
            )
        proc = Process(self, gen, name)
        self._resume(proc, None)
        return proc

    # ------------------------------------------------------------------
    # Process machinery
    # ------------------------------------------------------------------
    def _resume(self, proc: Process, value: Any) -> None:
        """Schedule a zero-delay resume at the current time (FIFO)."""
        self._seq += 1
        self._ready.append((self._seq, proc, value))

    def run_ahead_limit(self, machine=None, queued: bool = True) -> Optional[int]:
        """The last cycle a host-side shortcut may reach (None: nothing
        bounds it; below ``now``: none may run).  Every shortcut that
        applies many simulated steps in one asks only this: repeated L0
        exits (``KvmHypervisor.repeatable_l0_vmx``, ``queued=False``),
        dirtier bursts (``repro.core.migration.dirtier``) and fabric hops
        (``repro.cluster.fabric``).  None runs with fast-forward off, while
        ``machine`` has an observer, or under the :meth:`run` call's
        ``max_events`` budget.  Otherwise the limit is the call's
        ``until`` and, with ``queued``, the cycle before the earliest heap
        entry (which wins a tie), or no cycle while other work is ready
        (``docs/performance.md``, "Run-ahead contract").
        """
        if not self.ff.enabled or self._max_events is not None or (
            machine is not None and machine.observer() is not None
        ):
            return self.now - 1
        until = self._until
        if not queued:
            return until
        if self._ready:
            return self.now - 1
        heap = self._heap
        if heap and (until is None or heap[0][0] <= until):
            return heap[0][0] - 1
        return until

    # ------------------------------------------------------------------
    # Fast-forward primitives
    # ------------------------------------------------------------------
    def ff_scan(self, horizon: int) -> tuple:
        """Partition the live heap around ``now + horizon`` for the
        fast-forward machinery.

        Returns ``(carriers, window)``: ``carriers`` is the list of live
        *Process* heap entries due within the horizon, sorted by
        ``(when, seq)`` — the cycle-carrier candidates a macro-event may
        displace forward (see :meth:`ff_shift`); ``window`` is the
        earliest ``when`` of every *other* live entry (timers, plain
        callables, and anything beyond the horizon), or None.  Returns
        ``(None, None)`` when the ready queue is non-empty — there is no
        quiescent boundary to reason from.  As a side effect the scan
        drops inert (cancelled) timer handles, compacting the heap.
        """
        if self._ready:
            return None, None
        heap = self._heap
        limit = self.now + horizon
        carriers = []
        window: Optional[int] = None
        live = []
        for entry in heap:
            item = entry[2]
            if item.__class__ is TimerHandle and item.fn is None:
                continue
            live.append(entry)
            if entry[0] <= limit and item.__class__ is Process:
                carriers.append(entry)
            elif window is None or entry[0] < window:
                window = entry[0]
        if len(live) != len(heap):
            heap[:] = live
            heapq.heapify(heap)
        carriers.sort()
        return carriers, window

    def ff_shift(self, carriers, delta: int) -> int:
        """Displace ``carriers`` (live heap entries from :meth:`ff_scan`)
        ``delta`` cycles into the future and advance the clock with them.

        This is the macro-event primitive for steady states that never
        go fully quiescent (closed-loop request/response cycles): the
        carriers are mid-cycle sleepers whose wakeup offsets repeat
        every period, so moving them — in FIFO order, with fresh
        sequence numbers — to the same offsets past the skipped span
        reproduces exactly the heap a micro-stepped run would reach.
        Refuses (raises) if any *other* live work falls inside the
        window.
        """
        if delta < 0:
            raise SimulationError(f"negative ff_shift: {delta}")
        if self._ready:
            raise SimulationError("ff_shift with pending ready work")
        target = self.now + int(delta)
        heap = self._heap
        if carriers:
            drop = {id(entry) for entry in carriers}
            heap[:] = [entry for entry in heap if id(entry) not in drop]
        for when, _seq, item in heap:
            if when <= target and not (
                item.__class__ is TimerHandle and item.fn is None
            ):
                raise SimulationError(
                    f"ff_shift over live work at {when} (target {target})"
                )
        for when, _seq, item in carriers:
            self._seq += 1
            heap.append((when + delta, self._seq, item))
        heapq.heapify(heap)
        self.now = target
        return target

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the queues drain, ``until`` cycles pass, or
        ``max_events`` callbacks have run *in this call* (the budget is
        per-call, not cumulative over the simulator's lifetime).
        Returns the final time.
        """
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        heappush = heapq.heappush
        executed = 0
        ready_hits = heap_hits = inline_hits = 0
        outer = self._until, self._max_events
        self._until, self._max_events = until, max_events
        wall_start = perf_counter()
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    return self.now
                proc: Optional[Process] = None
                if ready:
                    # A heap entry at the current time that was scheduled
                    # earlier (smaller seq) runs before the oldest resume.
                    if heap and heap[0][0] == self.now and heap[0][1] < ready[0][0]:
                        item = heappop(heap)[2]
                        cls = item.__class__
                        if cls is Process:
                            heap_hits += 1
                            proc, value = item, None
                        elif cls is TimerHandle:
                            fn = item.fn
                            if fn is None:
                                continue
                            heap_hits += 1
                            executed += 1
                            fn()
                            continue
                        else:
                            heap_hits += 1
                            executed += 1
                            item()
                            continue
                    else:
                        _seq, proc, value = ready.popleft()
                        ready_hits += 1
                elif heap:
                    when = heap[0][0]
                    if until is not None and when > until:
                        self.now = until
                        return self.now
                    item = heappop(heap)[2]
                    self.now = when
                    cls = item.__class__
                    if cls is Process:
                        heap_hits += 1
                        proc, value = item, None
                    elif cls is TimerHandle:
                        # Inert handles still advance the clock (above),
                        # matching the stale-closure drains they replace,
                        # but execute and count nothing.
                        fn = item.fn
                        if fn is None:
                            continue
                        heap_hits += 1
                        executed += 1
                        fn()
                        continue
                    else:
                        heap_hits += 1
                        executed += 1
                        item()
                        continue
                else:
                    if until is not None and until > self.now:
                        self.now = until
                    return self.now

                # ---- step the process, chaining uncontended work ----
                while True:
                    executed += 1
                    if proc.done:
                        break  # cancelled while a resume was in flight
                    try:
                        yielded = proc.gen.send(value)
                    except StopIteration as stop:
                        proc.done = True
                        proc.result = stop.value
                        joiners = proc._joiners
                        if joiners:
                            for joiner in joiners:
                                self._seq += 1
                                ready.append((self._seq, joiner, stop.value))
                            proc._joiners = []
                        break
                    ycls = yielded.__class__
                    if ycls is int or ycls is float or isinstance(yielded, (int, float)):
                        if yielded < 0:
                            raise SimulationError(
                                f"process {proc.name} yielded negative delay {yielded}"
                            )
                        when = self.now + int(yielded)
                        # Inline fast path: nothing can run before `when`,
                        # so advance the clock and resume directly.
                        if not ready and (
                            (until is None or when <= until)
                            and (max_events is None or executed < max_events)
                        ):
                            if not heap or heap[0][0] > when:
                                self.now = when
                                inline_hits += 1
                                value = None
                                continue
                            # Inert cancelled timers are the only thing in
                            # the way: drop them here instead of bouncing
                            # through the outer loop once per stale arm.
                            while True:
                                top = heap[0][2]
                                if (
                                    top.__class__ is TimerHandle
                                    and top.fn is None
                                    and heap[0][0] <= when
                                ):
                                    heappop(heap)
                                    if heap:
                                        continue
                                break
                            if not heap or heap[0][0] > when:
                                self.now = when
                                inline_hits += 1
                                value = None
                                continue
                        self._seq += 1
                        heappush(heap, (when, self._seq, proc))
                        break
                    if ycls is Event or isinstance(yielded, Event):
                        if yielded.triggered:
                            # FIFO: queue behind any already-ready work,
                            # exactly like a trigger would have.
                            self._seq += 1
                            ready.append((self._seq, proc, yielded.value))
                            break
                        yielded._waiters.append(proc)
                        # Ping-pong chain: this process just parked and a
                        # resume is already queued at this timestamp (its
                        # partner, in the two-process shape) — step into
                        # it directly instead of re-entering the outer
                        # scheduler, unless an earlier-scheduled heap
                        # entry at this time must run first.
                        if (
                            ready
                            and (max_events is None or executed < max_events)
                            and not (
                                heap
                                and heap[0][0] == self.now
                                and heap[0][1] < ready[0][0]
                            )
                        ):
                            _seq, proc, value = ready.popleft()
                            inline_hits += 1
                            continue
                        break
                    if ycls is Process or isinstance(yielded, Process):
                        yielded._add_joiner(proc)
                        break
                    raise SimulationError(
                        f"process {proc.name} yielded unsupported "
                        f"{type(yielded).__name__}"
                    )
        finally:
            self._until, self._max_events = outer
            wall = perf_counter() - wall_start
            self._event_count += executed
            self._ready_hits += ready_hits
            self._heap_hits += heap_hits
            self._inline_hits += inline_hits
            self._last_run_events = executed
            self._last_run_wall_s = wall

    def run_process(self, gen: Generator, name: str = "main") -> Any:
        """Spawn ``gen``, run the simulation until it finishes, and return
        its result.  Raises if the heap drains before it completes
        (deadlock).
        """
        proc = self.spawn(gen, name)
        self.run()
        if not proc.done:
            raise SimulationError(f"deadlock: process {name} never finished")
        return proc.result

    @property
    def pending_events(self) -> int:
        """Number of callbacks currently queued."""
        return len(self._heap) + len(self._ready)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Engine throughput counters.

        Returns lifetime totals (``events_executed`` plus the split
        between ready-queue, heap, and inline hits), the cost of the most
        recent :meth:`run` call (events, host wall seconds, events/sec),
        what the :meth:`run_ahead_limit` shortcuts skipped, and the
        fast-forward counters (epochs observed/detected/skipped,
        macro-events, invalidations by cause).  Surfaced by
        ``repro.metrics.report`` so experiment reports show simulator
        cost next to simulated cycles — skipped work is never silently
        unobservable.
        """
        last_wall = self._last_run_wall_s
        last_events = self._last_run_events
        out: Dict[str, Any] = {
            "events_executed": self._event_count,
            "ready_hits": self._ready_hits,
            "heap_hits": self._heap_hits,
            "inline_hits": self._inline_hits,
            "pending_events": self.pending_events,
            "last_run_events": last_events,
            "last_run_wall_s": last_wall,
            "last_run_events_per_sec": (
                last_events / last_wall if last_wall > 0 else 0.0
            ),
            "exits_batched": self.exits_batched,
            "dirtier_bursts_merged": self.dirtier_bursts_merged,
            "transit_hops_ahead": self.transit_hops_ahead,
        }
        out.update(self.ff.stats())
        return out
