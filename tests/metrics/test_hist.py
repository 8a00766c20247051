"""Latency histograms: bucket math, exactness, merge/diff, capture."""

import random

import pytest

from repro.metrics import (
    Histogram,
    Metrics,
    RequestCapture,
    exact_percentile,
)
from repro.metrics.hist import SUB, bucket_index, bucket_lo


def bucket_hi(index):
    """Largest value mapping to ``index`` (inclusive)."""
    return bucket_lo(index + 1) - 1


# ----------------------------------------------------------------------
# Bucket math
# ----------------------------------------------------------------------
def test_bucket_index_monotonic_and_contiguous():
    last = -1
    for v in range(0, 5000):
        idx = bucket_index(v)
        assert idx >= last  # monotonic
        assert idx - last <= 1  # contiguous: no skipped indices
        last = max(last, idx)


def test_bucket_bounds_round_trip():
    rng = random.Random(7)
    values = [rng.randrange(0, 1 << 40) for _ in range(2000)] + list(range(70))
    for v in values:
        idx = bucket_index(v)
        assert bucket_lo(idx) <= v <= bucket_hi(idx)
        # the low edge is the canonical representative of its own bucket
        assert bucket_index(bucket_lo(idx)) == idx


def test_small_values_get_exact_buckets():
    for v in range(SUB):
        assert bucket_lo(bucket_index(v)) == v


def test_relative_error_bounded():
    rng = random.Random(11)
    for _ in range(2000):
        v = rng.randrange(SUB, 1 << 40)
        width = bucket_hi(bucket_index(v)) - bucket_lo(bucket_index(v)) + 1
        assert width <= max(1, v // SUB + 1)


# ----------------------------------------------------------------------
# exact_percentile: the one shared nearest-rank rule
# ----------------------------------------------------------------------
def test_exact_percentile_matches_historic_rule():
    values = [5, 1, 9, 3, 7]
    for p in (0, 25, 50, 90, 99, 100):
        expected = sorted(values)[min(len(values) - 1, int(len(values) * p / 100))]
        assert exact_percentile(values, p) == expected


def test_exact_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        exact_percentile([], 50)
    with pytest.raises(ValueError):
        exact_percentile([1], 101)


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_histogram_mean_is_exact():
    rng = random.Random(3)
    values = [rng.randrange(0, 10_000_000) for _ in range(500)]
    h = Histogram()
    for v in values:
        h.record(v)
    assert h.mean() == sum(values) / len(values)
    assert h.total == 500


def test_histogram_percentile_within_bucket_error():
    rng = random.Random(5)
    values = [rng.randrange(1, 1_000_000) for _ in range(1000)]
    h = Histogram()
    for v in values:
        h.record(v)
    for p in (50.0, 90.0, 99.0, 99.9):
        exact = exact_percentile(values, p)
        approx = h.percentile(p)
        # the bucketed percentile is the low edge of the exact value's bucket
        assert bucket_lo(bucket_index(exact)) == approx


def test_histogram_merge_is_order_independent():
    rng = random.Random(9)
    a, b, both = Histogram(), Histogram(), Histogram()
    for _ in range(300):
        v = rng.randrange(0, 1 << 30)
        (a if v % 2 else b).record(v)
        both.record(v)
    merged = a.copy().merge(b)
    assert merged.snapshot() == both.snapshot()
    assert merged.sum == both.sum and merged.total == both.total
    other_way = b.copy().merge(a)
    assert other_way.snapshot() == merged.snapshot()


def test_histogram_diff_windows_out_old_counts():
    h = Histogram()
    h.record(100), h.record(200)
    snap = h.copy()
    h.record(300), h.record(300)
    window = h.diff(snap)
    assert window.total == 2
    assert window.sum == 600
    assert window.percentile(50.0) == bucket_lo(bucket_index(300))


def test_histogram_count_above_is_conservative():
    h = Histogram()
    for v in (10, 100, 1000, 100_000):
        h.record(v)
    assert h.count_above(1000) == 1  # only 100_000's bucket is fully above
    assert h.count_above(0) == 4
    assert h.count_above(10**9) == 0


def test_histogram_empty_queries_raise():
    h = Histogram()
    with pytest.raises(ValueError):
        h.percentile(50.0)
    with pytest.raises(ValueError):
        h.mean()


def test_from_buckets_round_trips_metrics_table():
    m = Metrics()
    values = [123, 456, 789_000]
    for v in values:
        m.record_latency("svc", v)
    h = m.latency_histogram("svc")
    assert h.total == 3
    assert h.sum == sum(values)  # latency_sum keeps the exact sum
    assert m.latency_series() == ["svc"]


# ----------------------------------------------------------------------
# RequestCapture
# ----------------------------------------------------------------------
def test_capture_records_latency_not_service_time():
    m = Metrics()
    cap = RequestCapture(m, series="rr")
    cap.observe(enqueue=100, complete=400)
    h = m.latency_histogram("rr")
    assert h.total == 1
    assert h.sum == 300  # complete - enqueue, queueing delay included


def test_latency_tables_ride_metrics_snapshot_and_scale():
    m = Metrics()
    m.record_latency("svc", 5000, n=3)
    snap = m.snapshot()
    assert ("svc", bucket_index(5000)) in snap["latency"]
    # the fast-forward macro-event shape: one epoch's snapshot-diff
    # delta applied n-fold must be integer-exact
    clone = m.copy()
    delta = {t: dict(entries) for t, entries in snap.items()}
    clone.apply_scaled(delta, 4)
    h = clone.latency_histogram("svc")
    assert h.total == 15  # 3 + 3*4: integer-exact scaling
    assert h.sum == 5000 * 15
    assert m.latency_histogram("svc").total == 3  # original untouched


# ----------------------------------------------------------------------
# Edge cases: empty and single-bucket histograms (the generator sweep's
# cross-arch bugfix pass pinned these).
# ----------------------------------------------------------------------
def test_single_bucket_percentiles_are_the_bucket():
    h = Histogram()
    h.record(100, n=5)
    lo = bucket_lo(bucket_index(100))
    assert h.percentile(0) == h.percentile(50.0) == h.percentile(100.0) == lo
    assert h.count_above(lo - 1) == 5
    assert h.count_above(lo) == 0  # boundary bucket never counted


def test_empty_count_above_is_zero_not_phantom():
    h = Histogram()
    assert h.count_above(0) == 0
    assert h.total == 0
    assert h.snapshot() == {}


def test_merge_with_empty_is_identity_both_ways():
    h = Histogram()
    for v in (3, 70, 9_000):
        h.record(v)
    into_empty = Histogram().merge(h)
    assert (into_empty.counts, into_empty.total, into_empty.sum) == (
        h.counts,
        h.total,
        h.sum,
    )
    merged = h.copy().merge(Histogram())
    assert (merged.counts, merged.total, merged.sum) == (h.counts, h.total, h.sum)


def test_merge_of_two_empties_stays_empty_and_queryable_errors():
    merged = Histogram().merge(Histogram())
    assert merged.total == 0
    with pytest.raises(ValueError):
        merged.percentile(99.0)


def test_exact_percentile_singleton_every_p():
    for p in (0, 50, 99, 99.9, 100):
        assert exact_percentile([7], p) == 7


def test_percentile_table_skips_empty_series():
    """p99 of an empty tenant series must not divide by zero: the table
    renderer drops series with no samples instead of querying them."""
    from repro.cluster.telemetry import percentile_table
    from repro.metrics import Metrics

    m = Metrics()
    table = percentile_table(m, lambda series: "virtio")
    assert table == {}
