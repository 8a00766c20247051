"""Span tracing: reconciliation against Metrics, invisibility to the
simulation, and chain rendering."""

from repro.core.features import DvhFeatures
from repro.hv.stack import StackConfig, build_stack
from repro.workloads.apps import run_app
from repro.workloads.microbench import run_microbenchmark


def _run(config, name="ProgramTimer", iterations=2, trace=False):
    stack = build_stack(config)
    collector = None
    if trace:
        collector = stack.machine.enable_span_tracing()
    cycles = run_microbenchmark(stack, name, iterations)
    return stack, collector, cycles


def _stack_config(levels, dvh, io=None):
    if io is None:
        io = "vp" if dvh.virtual_passthrough and levels >= 2 else "virtio"
    return StackConfig(levels=levels, io_model=io, dvh=dvh)


def _micro(name, iterations=2):
    return lambda stack: run_microbenchmark(stack, name, iterations)


#: Every trap shape: direct L0 handling, one and two forwarding hops,
#: DVH short-circuits, the reinject hops of SendIPI and DevNotify at L3,
#: and an application's mix of all of them.
_INVISIBILITY_CASES = [
    (
        f"ProgramTimer-L{levels}-{label}",
        _stack_config(levels, dvh),
        _micro("ProgramTimer"),
    )
    for levels in (1, 2, 3)
    for label, dvh in (("none", DvhFeatures.none()), ("full", DvhFeatures.full()))
] + [
    (f"{name}-L3", _stack_config(3, DvhFeatures.none()), _micro(name))
    for name in ("SendIPI", "DevNotify")
] + [
    (
        "memcached-L2",
        _stack_config(2, DvhFeatures.none()),
        lambda stack: run_app(stack, "memcached", scale=0.05),
    ),
]


def test_tracing_changes_nothing_observable():
    """Same seed, tracing on vs off: identical clock, result, and
    metrics snapshot (spans live entirely outside Metrics)."""
    for case, config, work in _INVISIBILITY_CASES:
        plain_stack = build_stack(config)
        plain_result = work(plain_stack)
        traced_stack = build_stack(config)
        collector = traced_stack.machine.enable_span_tracing()
        traced_result = work(traced_stack)
        assert traced_result == plain_result, case
        assert traced_stack.sim.now == plain_stack.sim.now, case
        assert traced_stack.metrics.snapshot() == plain_stack.metrics.snapshot(), case
        assert collector.spans_closed > 0, case


def test_dispatch_only_categories_reconcile_exactly():
    """hw_switch and dvh_emul are charged only inside dispatch, so their
    span-attributed totals must equal the flat counters to rounding."""
    for cfg in (
        StackConfig(levels=2, io_model="virtio"),
        StackConfig(levels=3, io_model="vp", dvh=DvhFeatures.full()),
    ):
        stack, collector, _ = _run(cfg, trace=True)
        rows = {category: row for category, *row in collector.reconcile(stack.metrics)}
        for category in ("hw_switch", "dvh_emul"):
            span_cy, metric_cy, unattributed = rows[category]
            assert abs(unattributed) < 1, (cfg, category, span_cy, metric_cy)
        # Nothing is ever over-attributed: spans never exceed metrics.
        for category, (span_cy, metric_cy, _u) in rows.items():
            assert span_cy <= metric_cy + 1e-9, (cfg, category)


def test_spans_off_by_default_and_zero_allocation():
    stack = build_stack(StackConfig(levels=2))
    assert stack.machine.spans is None
    run_microbenchmark(stack, "Hypercall", iterations=1)
    assert stack.machine.spans is None  # nothing turned it on


def test_site_rows_sorted_and_render_chains():
    stack, collector, _ = _run(
        StackConfig(levels=2), name="Hypercall", iterations=2, trace=True
    )
    rows = collector.site_rows()
    assert rows == sorted(rows, key=lambda r: (-r[3], r[0], r[1], r[2]))
    text = collector.render_chains(last=2)
    assert "chain #" in text
    assert "vmcall" in text


def test_max_chains_bounds_retained_trees_not_aggregation():
    stack = build_stack(StackConfig(levels=2))
    collector = stack.machine.enable_span_tracing(max_chains=1)
    run_microbenchmark(stack, "Hypercall", iterations=3)
    assert len(collector.roots) == 1
    assert collector.chains_evicted > 0
    # Aggregates still cover every closed span.
    assert sum(collector.by_site.values()) > 0
    assert collector.spans_closed > len(collector.roots)
