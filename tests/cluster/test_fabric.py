"""Fabric: topology, serialization, metering, fault windows, transits."""

import gc

import pytest

from repro.cluster.fabric import Fabric, FabricFrame, UndeliverableError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultClass, FaultPlan, FaultSpec
from repro.sim import Simulator, default_costs
from tests.cluster.fabric_trace import (
    record_deliveries,
    snapshot,
    step_events,
    step_until,
    stop_and_wait,
)
from tests.stepped import shipped_and_stepped


def make_fabric(num_hosts=2, seed=0):
    sim = Simulator(seed=seed)
    fabric = Fabric(sim, default_costs())
    for i in range(num_hosts):
        fabric.attach(f"host{i}")
    return sim, fabric


def test_attach_rejects_duplicates_and_unknown_port():
    _sim, fabric = make_fabric()
    with pytest.raises(ValueError):
        fabric.attach("host0")
    with pytest.raises(UndeliverableError):
        fabric.port("nope")


def test_send_delivers_and_meters_cross_host_bytes():
    sim, fabric = make_fabric()
    got = []
    fabric.port("host1").receiver = got.append
    fabric.send(
        FabricFrame(src="host0", dst="host1", kind="net", size=1 << 20)
    )
    sim.run()
    assert [f.size for f in got] == [1 << 20]
    assert fabric.metrics.cross_host[("host0", "host1", "net")] == 1 << 20
    assert fabric.metrics.cross_host_bytes("net") == 1 << 20
    assert fabric.metrics.cross_host_bytes("migration") == 0
    assert fabric.port("host0").frames["tx"] == 1
    assert fabric.port("host1").frames["rx"] == 1


def test_delivery_takes_two_serializations_plus_latencies():
    sim, fabric = make_fabric()
    size = 1 << 20
    done = []
    fabric.port("host1").receiver = lambda f: done.append(sim.now)
    fabric.send(FabricFrame(src="host0", dst="host1", kind="net", size=size))
    sim.run()
    assert done == [fabric.frame_cycles(size)]


def test_uplink_contention_queues_frames():
    """Two frames out of the same host serialize back to back on the
    shared uplink: the second arrives one serialization later."""
    sim, fabric = make_fabric()
    size = 1 << 20
    arrivals = []
    fabric.port("host1").receiver = lambda f: arrivals.append(sim.now)
    for _ in range(2):
        fabric.send(
            FabricFrame(src="host0", dst="host1", kind="net", size=size)
        )
    sim.run()
    serialization = int(size * 8 / fabric.costs.fabric_bps * sim.freq_hz)
    assert arrivals[1] - arrivals[0] == serialization


def test_transfer_blocks_until_delivery():
    sim, fabric = make_fabric()

    def proc():
        result = yield from fabric.transfer(
            "host0", "host1", 4096, kind="control"
        )
        return (sim.now, result.size)

    when, size = sim.run_process(proc())
    assert size == 4096
    assert when == fabric.frame_cycles(4096)


def _partition_plan(host, start=0, end=10**9):
    return FaultPlan(
        [
            FaultSpec(
                kind=FaultClass.FABRIC_PARTITION,
                start=start,
                end=end,
                mechanisms=(host,),
            )
        ]
    )


def test_partition_blocks_targeted_host_only():
    sim, fabric = make_fabric(num_hosts=3)
    FaultInjector(fabric, _partition_plan("host1"), seed=1).attach()
    assert fabric.link_blocked("host1")
    assert not fabric.link_blocked("host2")
    assert fabric.path_blocked("host0", "host1")
    assert not fabric.path_blocked("host0", "host2")

    def proc():
        yield from fabric.transfer("host0", "host1", 4096, kind="net")

    with pytest.raises(UndeliverableError):
        sim.run_process(proc())


def test_partition_window_expires():
    sim, fabric = make_fabric()
    FaultInjector(fabric, _partition_plan("host1", end=1000), seed=1).attach()
    assert fabric.path_blocked("host0", "host1")
    sim.run(until=2000)
    assert not fabric.path_blocked("host0", "host1")


def test_host_loss_mid_flight_triggers_notify_with_none():
    """A frame already on the wire when its destination dies is counted
    undeliverable and the blocking transfer raises."""
    size = 1 << 20
    sim, fabric = make_fabric()
    # Lose host1 after the frame is launched but before it lands.
    plan = FaultPlan(
        [
            FaultSpec(
                kind=FaultClass.FABRIC_HOST_LOSS,
                start=100,
                end=10**9,
                mechanisms=("host1",),
            )
        ]
    )
    FaultInjector(fabric, plan, seed=1).attach()

    def proc():
        yield from fabric.transfer("host0", "host1", size, kind="migration")

    with pytest.raises(UndeliverableError, match="lost in flight"):
        sim.run_process(proc())
    assert fabric.undeliverable == 1
    assert fabric.metrics.cross_host_bytes() == 0


def test_degrade_stretches_serialization():
    sim1, fabric1 = make_fabric()
    arrivals1 = []
    fabric1.port("host1").receiver = lambda f: arrivals1.append(sim1.now)
    fabric1.send(FabricFrame(src="host0", dst="host1", kind="net", size=1 << 20))
    sim1.run()

    sim2, fabric2 = make_fabric()
    plan = FaultPlan([FaultSpec(kind=FaultClass.FABRIC_DEGRADE, param=0.25)])
    FaultInjector(fabric2, plan, seed=1).attach()
    assert fabric2.bandwidth_factor() == 0.25
    arrivals2 = []
    fabric2.port("host1").receiver = lambda f: arrivals2.append(sim2.now)
    fabric2.send(FabricFrame(src="host0", dst="host1", kind="net", size=1 << 20))
    sim2.run()
    # 4x less bandwidth ~= 4x the serialization (latency terms equal).
    assert arrivals2[0] > 3 * arrivals1[0]
    # Goodput metering is unchanged: the tenant still got its bytes.
    assert fabric2.metrics.cross_host_bytes("net") == 1 << 20


def test_fabric_injector_records_fault_metrics():
    sim, fabric = make_fabric()
    injector = FaultInjector(fabric, _partition_plan("host0"), seed=3).attach()
    assert fabric.link_blocked("host0")
    assert injector.injected[FaultClass.FABRIC_PARTITION] == 1
    assert fabric.metrics.faults[FaultClass.FABRIC_PARTITION] == 1


# ----------------------------------------------------------------------
# Transits: running a hop ahead of the heap changes no observable state
# ----------------------------------------------------------------------
def _flows(plan=None, admin_down=None, step=None):
    """Three stop-and-wait flows on a 4-host ToR, two of them contending
    for host1's downlink, plus frames sent from plain callbacks (two in
    the same cycle)."""

    def scenario():
        sim, fabric = make_fabric(num_hosts=4)
        if plan is not None:
            FaultInjector(fabric, plan, seed=1).attach()
        deliveries = record_deliveries(sim, fabric)
        failed = []
        stop_and_wait(sim, fabric, "host0", "host1", 6, 64 << 10, log=failed)
        stop_and_wait(
            sim, fabric, "host2", "host1", 6, 16 << 10, kind="migration", log=failed
        )
        stop_and_wait(sim, fabric, "host1", "host3", 4, 1 << 20, log=failed)
        for when in (0, 5_000, 5_000, 40_000):
            frame = FabricFrame(
                src="host3", dst="host0", kind="control", size=4096, payload=when
            )
            sim.call_at(when, lambda frame=frame: fabric.send(frame))
        if admin_down is not None:
            host, start, end = admin_down
            sim.call_at(start, lambda: fabric.admin_down.add(host))
            sim.call_at(end, lambda: fabric.admin_down.discard(host))
        steps = step(sim, fabric) if step is not None else sim.run()
        return deliveries, failed, steps, snapshot(sim, fabric)

    return scenario


def test_transit_run_ahead_matches_heap_on_contending_flows(monkeypatch):
    trace, heap_trace, ahead = shipped_and_stepped(monkeypatch, _flows())
    assert trace == heap_trace
    deliveries, failed, _end, _state = trace
    assert len(deliveries) == 6 + 6 + 4 + 4 and failed == []
    # Running ahead is what saves the heap round trips.
    assert ahead["transit_hops_ahead"] > 0


def test_transit_run_ahead_matches_heap_under_degrade_window(monkeypatch):
    plan = FaultPlan(
        [
            FaultSpec(
                kind=FaultClass.FABRIC_DEGRADE, param=0.25, start=100_000, end=700_000
            )
        ]
    )
    trace, heap_trace, ahead = shipped_and_stepped(monkeypatch, _flows(plan))
    assert trace == heap_trace
    assert ahead["transit_hops_ahead"] > 0
    assert trace[3][4][FaultClass.FABRIC_DEGRADE] > 0


def test_transit_run_ahead_matches_heap_on_host_loss_mid_flight(monkeypatch):
    plan = FaultPlan(
        [
            FaultSpec(
                kind=FaultClass.FABRIC_HOST_LOSS,
                start=200_000,
                end=900_000,
                mechanisms=("host1",),
            )
        ]
    )
    trace, heap_trace, ahead = shipped_and_stepped(monkeypatch, _flows(plan))
    assert trace == heap_trace
    assert ahead["transit_hops_ahead"] > 0
    _deliveries, failed, _end, state = trace
    assert any("lost in flight" in reason for *_rest, reason in failed)
    assert state[2]["undeliverable"] > 0


def test_transit_run_ahead_matches_heap_across_admin_down(monkeypatch):
    scenario = _flows(admin_down=("host1", 150_000, 600_000))
    trace, heap_trace, ahead = shipped_and_stepped(monkeypatch, scenario)
    assert trace == heap_trace
    assert ahead["transit_hops_ahead"] > 0
    assert trace[1]  # some frames hit the dark host


@pytest.mark.parametrize("step", [step_until, step_events])
def test_transit_run_ahead_matches_heap_when_stepped(monkeypatch, step):
    """State read at every ``run(until=)`` / ``run(max_events=)``
    return is the micro-stepped state."""
    trace, heap_trace, ahead = shipped_and_stepped(monkeypatch, _flows(step=step))
    assert trace == heap_trace
    # No hop runs ahead under a max_events budget.
    assert (ahead["transit_hops_ahead"] > 0) == (step is step_until)
    assert len(trace[2]) > 10


def hop_tie_cell():
    """A callback scheduled for exactly arrival + switch latency was
    queued before the hop: (downlink busy-until it saw, delivery cycles,
    the frame's cycles)."""
    sim, fabric = make_fabric()
    size = 1 << 20
    fabric.send(FabricFrame(src="host0", dst="host1", kind="net", size=size))
    uplink = fabric.port("host0").wire
    arrival = uplink._busy_until["out"] + uplink.latency
    downlink = fabric.port("host1").wire
    seen = []
    sim.call_at(
        arrival + fabric.costs.fabric_switch_latency,
        lambda: seen.append(downlink._busy_until["in"]),
    )
    done = []
    fabric.port("host1").receiver = lambda f: done.append(sim.now)
    sim.run()
    return seen, done, fabric.frame_cycles(size)


def test_hop_tied_with_an_earlier_callback_runs_after_it(monkeypatch):
    """The callback runs first and sees the downlink idle."""
    ahead, stepped, _ = shipped_and_stepped(monkeypatch, hop_tie_cell)
    assert ahead == stepped
    seen, done, cycles = ahead
    assert seen == [0]
    assert done == [cycles]


def test_finished_transfer_leaves_no_cyclic_garbage():
    """Delivery clears the frame's notify before triggering it, so the
    frame and its event are freed by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        sim, fabric = make_fabric()

        def proc():
            frame = yield from fabric.transfer("host0", "host1", 4096, kind="net")
            return frame.size

        assert sim.run_process(proc()) == 4096
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, FabricFrame)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []
