"""Log-spaced latency histograms and the request-latency capture.

Latency capture has to satisfy three masters at once:

* **determinism** — same seed, same histogram, byte for byte, whether
  fast-forward skipped 10k epochs or micro-stepped every one, and
  whether a sweep ran serial or under ``--jobs``;
* **mergeability** — per-tenant histograms from many hosts (or many
  sweep cells) must combine without loss;
* **cost** — capture off must add *zero* work to the hot path, exactly
  like span tracing (``machine.spans is None``).

The answer is the HDR-histogram trick on the simulated integer clock:
values are bucketed into log-spaced bins with :data:`SUB` linear
sub-buckets per power of two, so bucket counts are small integers, the
relative quantization error is bounded (< 1/SUB), and every operation —
record, merge, diff, scale-by-N — is exact integer arithmetic.  Bucket
counts live in :class:`repro.metrics.Metrics` Counter tables (``latency``
and ``latency_sum``), which rides the ``_TABLES`` registry: snapshots,
fast-forward fingerprints, and ``apply_scaled`` macro-events all cover
them with no additional machinery.

:func:`exact_percentile` is the one shared implementation of the
nearest-rank percentile rule previously duplicated by
``AppResult.latency_percentile`` and the microbenchmark list math.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "SUB_BITS",
    "SUB",
    "bucket_index",
    "bucket_lo",
    "exact_percentile",
    "Histogram",
    "RequestCapture",
]

#: Linear sub-buckets per power of two.  32 sub-buckets bound the
#: relative quantization error of a bucketed percentile at ~3.1%.
SUB_BITS = 5
SUB = 1 << SUB_BITS


def bucket_index(value: int) -> int:
    """Map a non-negative integer (cycles) to its histogram bucket.

    Values below :data:`SUB` get exact singleton buckets; above that,
    each power of two splits into :data:`SUB` linear sub-buckets.  The
    mapping is monotonic and contiguous (no unused indices).
    """
    if value < SUB:
        return value if value > 0 else 0
    exp = value.bit_length() - 1 - SUB_BITS
    return (exp << SUB_BITS) + (value >> exp)


def bucket_lo(index: int) -> int:
    """Smallest value mapping to ``index`` — the bucket's canonical
    representative (deterministic, never above the true value)."""
    if index < 2 * SUB:
        return index
    exp = (index >> SUB_BITS) - 1
    return ((index & (SUB - 1)) + SUB) << exp


def exact_percentile(values: Sequence[int], p: float) -> int:
    """Nearest-rank percentile over raw values.

    This is the exact rule ``AppResult.latency_percentile`` has always
    used (``sorted(values)[min(n - 1, int(n * p / 100))]``), hoisted
    here so every caller shares one implementation.  Raises on an empty
    sequence or an out-of-range ``p`` so callers surface, not mask,
    missing data.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0 <= p <= 100:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(len(ordered) * p / 100))
    return ordered[idx]


class Histogram:
    """A mergeable fixed-bucket latency histogram (integer counts).

    ``counts`` maps bucket index -> count; ``total`` is the number of
    recorded values and ``sum`` their exact integer total, so
    :meth:`mean` is byte-identical to ``sum(values)/len(values)`` on
    the raw list.  Percentiles use the same nearest-rank rule as
    :func:`exact_percentile` over the bucketed distribution, reporting
    the bucket's canonical low edge.
    """

    __slots__ = ("counts", "total", "sum")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.total = 0
        self.sum = 0

    # ------------------------------------------------------------------
    # Recording / combining
    # ------------------------------------------------------------------
    def record(self, value: int, n: int = 1) -> None:
        idx = bucket_index(value)
        self.counts[idx] = self.counts.get(idx, 0) + n
        self.total += n
        self.sum += value * n

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into self (exact; order-independent)."""
        counts = self.counts
        for idx, n in other.counts.items():
            counts[idx] = counts.get(idx, 0) + n
        self.total += other.total
        self.sum += other.sum
        return self

    def copy(self) -> "Histogram":
        out = Histogram()
        out.counts = dict(self.counts)
        out.total = self.total
        out.sum = self.sum
        return out

    def diff(self, earlier: "Histogram") -> "Histogram":
        """Counts accumulated since ``earlier`` (a copied snapshot) —
        the windowed view the SLO gate samples so old breaches age out."""
        out = Histogram()
        for idx, n in self.counts.items():
            grown = n - earlier.counts.get(idx, 0)
            if grown > 0:
                out.counts[idx] = grown
        out.total = sum(out.counts.values())
        out.sum = self.sum - earlier.sum
        return out

    @classmethod
    def from_buckets(
        cls, buckets: Iterable[Tuple[int, int]], total_sum: int = 0
    ) -> "Histogram":
        """Rebuild from (bucket index, count) pairs — the shape stored
        in the ``Metrics.latency`` table."""
        out = cls()
        for idx, n in buckets:
            if n > 0:
                out.counts[idx] = out.counts.get(idx, 0) + n
        out.total = sum(out.counts.values())
        out.sum = total_sum
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def percentile(self, p: float) -> int:
        """Nearest-rank percentile over the bucketed distribution, as
        the bucket's low edge (cycles).  Deterministic; quantization
        error bounded by the bucket width (< 1/SUB relative)."""
        if not self.total:
            raise ValueError("percentile of an empty histogram")
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        rank = min(self.total - 1, int(self.total * p / 100))
        seen = 0
        for idx in sorted(self.counts):
            seen += self.counts[idx]
            if seen > rank:
                return bucket_lo(idx)
        raise AssertionError("unreachable: rank < total")  # pragma: no cover

    def mean(self) -> float:
        if not self.total:
            raise ValueError("mean of an empty histogram")
        return self.sum / self.total

    def count_above(self, value: int) -> int:
        """Recorded values whose *bucket* lies entirely above ``value``
        (conservative: boundary buckets are not counted)."""
        return sum(
            n for idx, n in self.counts.items() if bucket_lo(idx) > value
        )

    def snapshot(self) -> Dict[int, int]:
        """Plain-dict bucket counts, sorted by index, for reports and
        digests."""
        return {idx: self.counts[idx] for idx in sorted(self.counts)}


class RequestCapture:
    """The one capture API every engine feeds request lifecycles through.

    Histogram-shaped state (bucket counts, exact sums) is recorded into
    the owning :class:`~repro.metrics.Metrics` tables, so it joins
    fast-forward fingerprints and scales exactly across skipped epochs.
    """

    __slots__ = ("metrics", "series")

    def __init__(self, metrics, series: str = "requests") -> None:
        self.metrics = metrics
        self.series = series

    def observe(
        self, enqueue: int, complete: int, series: Optional[str] = None
    ) -> None:
        """Record one request that entered the system at ``enqueue`` and
        was fully answered at ``complete``: its client-observed latency,
        queueing included."""
        name = series if series is not None else self.series
        self.metrics.record_latency(name, complete - enqueue)
