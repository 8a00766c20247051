"""Measurement: counters, histograms, request capture, spans, reports."""

from repro.metrics.counters import Metrics
from repro.metrics.hist import (
    Histogram,
    RequestCapture,
    exact_percentile,
)
from repro.metrics.spans import Span, SpanCollector

__all__ = [
    "Metrics",
    "Histogram",
    "RequestCapture",
    "exact_percentile",
    "Span",
    "SpanCollector",
]
