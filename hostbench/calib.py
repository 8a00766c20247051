"""Host-speed calibration: a fixed pure-Python loop timed all through a run.

The simulator's host time swings by up to 1.8x within half an hour on a
shared 2-core virtual machine, and the host flips between a fast and a slow
state every few seconds, so raw seconds cannot be compared across runs.
A :class:`Calibration` times a short chunk of this loop every
``INTERVAL_S`` seconds (from a ``SIGALRM`` handler, so no program code
is touched) and before and after every cell.  Between two consecutive
samples the host speed is taken as constant, and each second of
workload time in that gap counts as ``REFERENCE_CHUNK_S / chunk_s``
reference-host seconds, where ``chunk_s`` is the mean of the two
samples.  Time spent calibrating is excluded from every interval.

Shape: dict get/set on a small key set plus a bound-method call on a
``__slots__`` object.  That mirrors the simulator's hot paths (dict
walks in the EPT radix, attribute access and method calls in the event
loop) without allocating containers, so the loop never triggers the
cyclic garbage collector and its time does not depend on the size of
the heap the workload leaves behind.  See README.md for the shapes and
interleavings measured against it.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Tuple

#: Loop iterations per chunk (about 3 ms on the reference host).
CHUNK_ITERATIONS = 16_000

#: Chunks per sample; a sample is the fastest of them (a burst of host
#: noise inflates a chunk, nothing deflates one).
CHUNKS_PER_SAMPLE = 3

#: Seconds between timer-driven samples.
INTERVAL_S = 0.1

#: Median chunk time on the reference host (shared 2-core x86-64 VM,
#: CPython 3.11).  Normalized metrics are expressed in seconds of that
#: host; changing this constant rescales every normalized metric, so it
#: changes only in a benchmark change that re-baselines.
REFERENCE_CHUNK_S = 0.0032


class _Counter:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 1
        self.b = 2

    def step(self, i: int) -> int:
        self.a = (self.a + i) & 0xFFF
        return self.a ^ self.b


def chunk() -> float:
    """Run one calibration chunk; returns its wall time in seconds."""
    table: dict = {}
    get = table.get
    counter = _Counter()
    step = counter.step
    start = time.perf_counter()
    for i in range(CHUNK_ITERATIONS):
        key = i & 255
        table[key] = (get(key, 0) + step(i)) & 0xFFFF
    return time.perf_counter() - start


class Calibration:
    """Samples of host speed over one run, and the time conversions they
    give.  Use as a context manager to run the interval timer."""

    def __init__(self) -> None:
        #: (perf_counter at begin, at end, fastest chunk s), in time order.
        self.samples: List[Tuple[float, float, float]] = []
        self._begins: List[float] = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # the timer fired during an explicit sample
            return
        self._busy = True
        try:
            begin = time.perf_counter()
            fastest = min(chunk() for _ in range(CHUNKS_PER_SAMPLE))
            self.samples.append((begin, time.perf_counter(), fastest))
            self._begins.append(begin)
        finally:
            self._busy = False

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()

    def __enter__(self) -> "Calibration":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def chunk_times(self) -> List[float]:
        return [s[2] for s in self.samples]

    def seconds(self, start: float, end: float) -> Tuple[float, float]:
        """(raw, reference-host) seconds of ``[start, end]`` minus the
        time spent calibrating.  The interval must lie between two
        samples' ends, which the caller guarantees by sampling before
        and after the work it times."""
        samples = self.samples
        k = max(0, bisect.bisect_right(self._begins, start) - 1)
        raw = norm = 0.0
        while k + 1 < len(samples):
            gap_lo, gap_hi = samples[k][1], samples[k + 1][0]
            if gap_lo >= end:
                break
            overlap = min(end, gap_hi) - max(start, gap_lo)
            if overlap > 0:
                raw += overlap
                norm += overlap * REFERENCE_CHUNK_S * 2 / (samples[k][2] + samples[k + 1][2])
            k += 1
        return raw, norm
