"""Steady-state fast-forward: equivalence and invalidation.

The hard acceptance test for epoch skipping is *byte identity*: every
simulated observable — final clock, every Metrics counter, workload
results, latency lists, fuzz digests — must be exactly the same with
fast-forward on and off.  Skipping may only change host wall time.

The second half covers the invalidation rules: any observer or aperiodic
event (fault injector, live migration, span tracing, audit attach) must
stop macro-events from engaging or drop the locked fingerprint.
"""

import pytest

from repro.core.features import DvhFeatures
from repro.hv.stack import StackConfig, build_stack
from repro.workloads.apps import run_app
from repro.workloads.microbench import run_microbenchmark


def _digest(stack):
    """Every simulated observable of a single-stack run."""
    return (
        stack.sim.now,
        repr(sorted(stack.metrics.snapshot().items())),
        stack.sim.rng.getstate(),
    )


def _set_ff(monkeypatch, ff):
    """Flip the one fast-forward switch every Simulator reads."""
    monkeypatch.setenv("REPRO_FAST_FORWARD", "1" if ff else "0")


def _stack(monkeypatch, ff, **kw):
    _set_ff(monkeypatch, ff)
    kw.setdefault("levels", 2)
    kw.setdefault("io_model", "virtio")
    kw.setdefault("dvh", DvhFeatures.full())
    return build_stack(StackConfig(**kw))


# ----------------------------------------------------------------------
# Equivalence: byte-identical digests with fast-forward on vs off
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bench", ["Hypercall", "DevNotify", "ProgramTimer"])
def test_table3_micro_ops_byte_identical(bench, monkeypatch):
    runs = {}
    for ff in (False, True):
        stack = _stack(monkeypatch, ff)
        cycles = run_microbenchmark(stack, bench, iterations=40)
        runs[ff] = (cycles, _digest(stack), stack.sim.ff.epochs_skipped)
    assert runs[True][:2] == runs[False][:2]
    # Not vacuous: with fast-forward on, most iterations were skipped.
    assert runs[True][2] > 20
    assert runs[False][2] == 0


@pytest.mark.parametrize(
    "levels,io_model,dvh",
    [
        (2, "virtio", DvhFeatures.full()),
        (2, "vp", DvhFeatures.full()),
        (1, "virtio", DvhFeatures.none()),
        # Figure 9's L3 + DVH-VP cell: a skip that ended within one
        # period of the safety timer let a stale arm fire.
        (3, "vp", DvhFeatures.vp_only()),
    ],
)
def test_fig7_netperf_rr_byte_identical(levels, io_model, dvh, monkeypatch):
    runs = {}
    for ff in (False, True):
        stack = _stack(monkeypatch, ff, levels=levels, io_model=io_model, dvh=dvh)
        r = run_app(stack, "netperf_rr", scale=0.3)
        runs[ff] = (
            (r.value, r.elapsed_s, r.txns, tuple(r.latencies)),
            _digest(stack),
            stack.sim.ff.epochs_skipped,
        )
    assert runs[True][:2] == runs[False][:2]
    assert runs[False][2] == 0


def test_netperf_rr_steady_state_actually_skips(monkeypatch):
    stack = _stack(monkeypatch, True)
    run_app(stack, "netperf_rr", scale=0.5)
    ff = stack.sim.ff
    assert ff.detections >= 1
    assert ff.epochs_skipped > 50
    # Skipped work stays observable through stats().
    stats = stack.sim.stats()
    assert stats["ff_epochs_skipped"] == ff.epochs_skipped
    assert stats["ff_macro_events"] == ff.macro_events


def test_fuzz_campaign_digests_identical(monkeypatch):
    """100 episodes, every digest identical with fast-forward on vs off.

    Fault injection vetoes skipping, so this doubles as the guard that
    the fast-forward machinery never perturbs a run it cannot skip.
    """
    from repro.scenarios import fuzz_specs, run_scenarios

    specs = fuzz_specs(seed=11, count=100, ops_per_worker=6)
    outcomes = {}
    for ff in (False, True):
        _set_ff(monkeypatch, ff)
        outcomes[ff] = run_scenarios(specs)
    assert outcomes[True] == outcomes[False]


def test_cluster_migrate_byte_identical(monkeypatch):
    """Fleet simulators carry no fast-forward source: a cross-host
    migration and a whole datacenter run observe no epoch at all, so
    the on/off runs are identical by construction."""
    from repro.cluster import Cluster, TenantSpec
    from repro.dc import load_spec, run_dc

    runs = {}
    for ff in (False, True):
        _set_ff(monkeypatch, ff)
        cluster = Cluster(num_hosts=2, seed=7)
        cluster.place(TenantSpec(name="t0", io_model="vp", memory_gb=4))
        record = cluster.migrate("t0", "host1")
        runs[ff] = (
            (
                record.outcome,
                record.result.total_s,
                record.result.downtime_s,
                record.result.bytes_transferred,
            ),
            cluster.sim.now,
            repr(sorted(cluster.fabric.metrics.snapshot().items())),
            [
                repr(sorted(h.machine.metrics.snapshot().items()))
                for h in cluster.hosts
            ],
            {h.name: dict(h.port.frames) for h in cluster.hosts},
            {h.name: dict(h.port.wire.bytes_carried) for h in cluster.hosts},
        )
        assert cluster.sim.ff.enabled is ff
        assert cluster.sim.ff.sources == {}
        assert cluster.sim.ff.epochs_observed == 0
    assert runs[True] == runs[False]

    dc = run_dc(load_spec("small"), seed=1)
    assert dc.sim.ff.enabled
    assert dc.sim.ff.sources == {}
    assert dc.sim.ff.epochs_observed == 0


# ----------------------------------------------------------------------
# Host work: the same epochs observed, locked and skipped per source
# ----------------------------------------------------------------------
def _source_counts(monkeypatch, run):
    """``(source, epochs observed, detections, epochs skipped,
    macro-events)`` for every simulator ``run()`` creates that carries a
    source, in creation order.  Each carries one, so the simulator's
    observed and macro-event counts are its source's."""
    from repro.sim import fastforward

    _set_ff(monkeypatch, True)
    made = []
    init = fastforward.FastForward.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(fastforward.FastForward, "__init__", recording_init)
    run()
    rows = []
    for ff in made:
        assert len(ff.sources) <= 1
        for name, src in ff.sources.items():
            rows.append(
                (name, ff.epochs_observed, src.detections, src.epochs_skipped,
                 ff.macro_events)
            )
    return rows


def test_table3_host_work_pinned(monkeypatch):
    """Every Table 3 cell (seed 0, 30 iterations) with a source locks
    once and skips 24 of its 30 iterations."""
    from repro.bench.runner import run_table3

    rows = _source_counts(monkeypatch, lambda: run_table3(iterations=30, seed=0))
    expected = [
        (name, 5, 1, 24, 1)
        for name in ("micro:hypercall", "micro:devnotify", "micro:program-timer")
        for _config in range(5)
    ]
    assert rows == expected


def test_figure7_netperf_rr_host_work_pinned(monkeypatch):
    """Figure 7's netperf RR cells, native first, in the figure's order."""
    from repro.bench.runner import run_figure

    rows = _source_counts(
        monkeypatch, lambda: run_figure("7", apps=["netperf_rr"], seed=0)
    )
    assert rows == [
        ("rr:netperf_rr", 5, 1, 114, 1),
        ("rr:netperf_rr", 6, 1, 113, 1),
        ("rr:netperf_rr", 5, 1, 114, 1),
        ("rr:netperf_rr", 8, 2, 111, 2),
        ("rr:netperf_rr", 5, 1, 114, 1),
        ("rr:netperf_rr", 6, 1, 113, 1),
        ("rr:netperf_rr", 6, 1, 113, 1),
    ]


def test_two_machines_on_one_simulator_never_skip(monkeypatch):
    """A second machine on a simulator makes fast-forward drop both
    machines: the micro loop that skips alone runs every epoch, and a
    shut-down fleet host is not held."""
    from repro.cluster import Cluster
    from repro.hw.machine import Machine
    from repro.sim import Simulator

    def hypercall(extra_machine):
        sim = Simulator(fast_forward=True)
        stack = build_stack(StackConfig(levels=2), machine=Machine(sim=sim))
        if extra_machine:
            Machine(sim=sim)
        cycles = run_microbenchmark(stack, "Hypercall", iterations=40)
        return cycles, _digest(stack), sim.ff

    alone_cycles, alone_digest, alone = hypercall(False)
    assert alone.metrics is not None and alone.epochs_skipped > 20
    cycles, digest, shared = hypercall(True)
    assert (cycles, digest) == (alone_cycles, alone_digest)
    assert shared.metrics is None and shared.veto is None
    assert shared.epochs_observed > 0
    assert shared.epochs_skipped == shared.macro_events == 0

    _set_ff(monkeypatch, True)
    cluster = Cluster(num_hosts=2, seed=0)
    host = cluster.hosts[0]
    host.ensure_booted()
    host.shutdown()
    assert host.machine is None
    assert cluster.sim.ff.metrics is None and cluster.sim.ff.veto is None


def test_lone_host_shutdown_releases_fast_forward(monkeypatch):
    """The only machine on a simulator is held by fast-forward until its
    host shuts down, and its reboot is held again."""
    from repro.cluster import Cluster

    _set_ff(monkeypatch, True)
    cluster = Cluster(num_hosts=1, seed=0)
    host = cluster.hosts[0]
    host.ensure_booted()
    ff = cluster.sim.ff
    assert ff.metrics is host.machine.metrics
    host.shutdown()
    assert ff.metrics is None and ff.veto is None
    host.boot()
    assert ff.metrics is host.machine.metrics


def test_two_live_hosts_hold_no_fast_forward(monkeypatch):
    """Two live machines drop both references; shutting one down does
    not re-arm the other, and a reboot onto an empty simulator does."""
    from repro.cluster import Cluster

    _set_ff(monkeypatch, True)
    cluster = Cluster(num_hosts=2, seed=0)
    a, b = cluster.hosts
    a.ensure_booted()
    b.ensure_booted()
    ff = cluster.sim.ff
    assert ff.metrics is None and ff.veto is None
    a.shutdown()
    assert ff.metrics is None and ff.veto is None
    a.boot()
    assert ff.metrics is None and ff.veto is None
    a.shutdown()
    b.shutdown()
    assert ff.metrics is None and ff.veto is None
    b.boot()
    assert ff.metrics is b.machine.metrics
    assert ff.veto is not None


# ----------------------------------------------------------------------
# Invalidation: observers and aperiodic events stop macro-events
# ----------------------------------------------------------------------
def test_fault_injector_attached_vetoes_skipping(monkeypatch):
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan

    stack = _stack(monkeypatch, True)
    FaultInjector(stack.machine, FaultPlan.empty(), seed=3).attach()
    run_microbenchmark(stack, "Hypercall", iterations=40)
    assert stack.sim.ff.epochs_skipped == 0
    assert stack.sim.ff.invalidations.get("faults", 0) > 0


def test_audit_attached_vetoes_skipping(monkeypatch):
    from repro.audit import Auditor

    stack = _stack(monkeypatch, True)
    auditor = Auditor()
    auditor.attach_stack(stack)
    run_microbenchmark(stack, "Hypercall", iterations=40)
    assert stack.sim.ff.epochs_skipped == 0
    assert stack.sim.ff.invalidations.get("audit", 0) > 0
    assert auditor.finish().ok


def test_span_tracing_attached_vetoes_skipping(monkeypatch):
    stack = _stack(monkeypatch, True)
    stack.machine.enable_span_tracing()
    run_microbenchmark(stack, "Hypercall", iterations=40)
    assert stack.sim.ff.epochs_skipped == 0
    assert stack.sim.ff.invalidations.get("spans", 0) > 0


def test_hist_capture_rides_fast_forward_byte_identical(monkeypatch):
    """Histogram-only request capture joins the fingerprint and scales
    across skipped epochs: same tables, same latency list, byte for
    byte — and skipping really happened."""
    import dataclasses

    from repro.workloads.apps import NETPERF_RR
    from repro.workloads.engines import run_rr

    runs = {}
    for ff in (False, True):
        stack = _stack(monkeypatch, ff, io_model="vp")
        stack.machine.enable_request_capture(series="rr")
        result = run_rr(stack, dataclasses.replace(NETPERF_RR, txns=200))
        runs[ff] = (
            result.latencies,
            _digest(stack),
            stack.metrics.latency_histogram("rr").counts,
            stack.sim.ff.epochs_skipped,
        )
    assert runs[True][:3] == runs[False][:3]
    assert runs[True][3] > 100
    assert runs[False][3] == 0


def test_open_loop_arrivals_not_skipped(monkeypatch):
    """Poisson arrival gaps are RNG-drawn, never periodic: the engine
    must not treat an open-loop run as a steady state."""
    import dataclasses

    from repro.workloads.apps import NETPERF_RR
    from repro.workloads.engines import run_rr

    stack = _stack(monkeypatch, True, io_model="vp")
    run_rr(
        stack,
        dataclasses.replace(
            NETPERF_RR, txns=60, arrival="poisson", offered_tps=30_000.0
        ),
    )
    assert stack.sim.ff.epochs_skipped == 0


def test_trace_digest_identical_under_span_veto(monkeypatch):
    """Span tracing records the identical chains either way (the veto
    forces micro-stepping, so no span is ever macro-hidden)."""
    views = {}
    for ff in (False, True):
        stack = _stack(monkeypatch, ff)
        spans = stack.machine.enable_span_tracing(max_chains=100_000)
        run_microbenchmark(stack, "ProgramTimer", iterations=30)
        assert stack.sim.ff.epochs_skipped == 0
        views[ff] = (spans.site_rows(), spans.render_chains(), spans.spans_closed)
    assert views[True][2] > 0
    assert views[True] == views[False]


def test_migration_start_perturbs_and_vetoes(monkeypatch):
    """A live migration mid-run bumps the generation (dropping locked
    fingerprints) and vetoes workload skipping until it completes."""
    from repro.core.migration import LiveMigration

    stack = _stack(monkeypatch, True, io_model="vp")
    generation_before = stack.sim.ff.generation
    migration = LiveMigration(stack.machine, stack.leaf_vm)
    result = stack.sim.run_process(migration.run(), "migration")
    assert result.total_s > 0
    assert stack.sim.ff.generation > generation_before
    assert stack.sim.ff.invalidations.get("migration", 0) >= 1
    # The veto lifted once the migration finished.
    assert stack.machine.ff_migrations == 0


def test_mid_epoch_perturbation_drops_fingerprint():
    """perturb() between observes restarts confirmation from scratch."""
    from repro.metrics import Metrics
    from repro.sim import Simulator

    sim = Simulator(fast_forward=True)
    metrics = Metrics()
    sim.ff.attach(metrics)
    skipped = []

    def loop():
        src = sim.ff.source("unit:loop")
        left = 60
        while left > 0:
            metrics.charge("guest_work", 500)
            yield 500
            left -= 1
            # Perturb early, while the fingerprint is still confirming
            # (before the first macro-skip can jump the counter past us).
            if left == 57:
                sim.ff.perturb("test-cause")
            if left:
                n = src.observe(left)
                skipped.append(n)
                left -= n

    sim.spawn(loop(), "loop")
    sim.run()
    assert sim.ff.invalidations.get("test-cause", 0) == 1
    # It re-locked and skipped after the perturbation.
    assert sum(skipped) > 0


def test_disabled_simulator_never_skips(monkeypatch):
    stack = _stack(monkeypatch, False)
    run_microbenchmark(stack, "Hypercall", iterations=40)
    assert stack.sim.ff.enabled is False
    assert stack.sim.ff.epochs_skipped == 0


# ----------------------------------------------------------------------
# Engine primitives: ff_scan / ff_shift safety rails
# ----------------------------------------------------------------------
def test_ff_shift_refuses_pending_work_in_window():
    from repro.sim import Simulator, SimulationError

    sim = Simulator(fast_forward=True)
    sim.call_at(1_000, lambda: None)
    carriers, window = sim.ff_scan(10_000)
    # The callable is not a Process, so it is a window blocker, not a
    # carrier.
    assert carriers == []
    assert window == 1_000
    with pytest.raises(SimulationError):
        sim.ff_shift([], 5_000)


def test_ff_scan_reports_runnable_work_as_unsafe():
    from repro.sim import Simulator

    sim = Simulator(fast_forward=True)

    def proc():
        yield 1

    sim.spawn(proc(), "p")  # spawn enqueues on the ready deque
    carriers, window = sim.ff_scan(1_000)
    assert carriers is None and window is None
