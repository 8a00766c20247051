"""Spine-leaf fabric: ECMP, cross-rack costs, trunk faults, metering,
transits."""

import pytest

from repro.cluster.fabric import FabricFrame, UndeliverableError
from repro.dc import SpineLeafFabric
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.sim import Simulator, default_costs
from tests.cluster.fabric_trace import (
    record_deliveries,
    snapshot,
    step_events,
    step_until,
    stop_and_wait,
)
from tests.stepped import shipped_and_stepped


def make_fabric(racks=2, hosts_per_rack=2, spines=2, oversub=2.0, seed=0):
    sim = Simulator(seed=seed)
    fabric = SpineLeafFabric(
        sim,
        default_costs(),
        racks=racks,
        hosts_per_rack=hosts_per_rack,
        spines=spines,
        oversubscription=oversub,
    )
    for r in range(racks):
        for h in range(hosts_per_rack):
            fabric.attach(f"r{r}h{h}", rack=r)
    return sim, fabric


def test_topology_validation():
    sim = Simulator(seed=0)
    with pytest.raises(ValueError, match="must be >= 1"):
        SpineLeafFabric(sim, default_costs(), racks=0)
    with pytest.raises(ValueError, match="oversubscription"):
        SpineLeafFabric(sim, default_costs(), oversubscription=0)
    _, fabric = make_fabric()
    with pytest.raises(ValueError, match="out of range"):
        fabric.attach("stray", rack=9)


def test_trunk_bandwidth_encodes_oversubscription():
    costs = default_costs()
    _, one_to_one = make_fabric(hosts_per_rack=4, spines=2, oversub=1.0)
    _, four_to_one = make_fabric(hosts_per_rack=4, spines=2, oversub=4.0)
    assert one_to_one.trunk_bps == 4 * costs.fabric_bps / 2
    assert four_to_one.trunk_bps == one_to_one.trunk_bps / 4


def test_ecmp_is_deterministic_and_spreads_flows():
    _, fabric = make_fabric(racks=2, hosts_per_rack=8, spines=4)
    picks = {
        (s, d): fabric.spine_for(s, d)
        for s in fabric.rack_of
        for d in fabric.rack_of
        if s != d
    }
    # Stable across calls (and across runs: CRC-32, not hash()).
    for (s, d), spine in picks.items():
        assert fabric.spine_for(s, d) == spine
        assert 0 <= spine < 4
    # Different flows actually land on different spines.
    assert len(set(picks.values())) > 1


def test_intra_rack_delivery_matches_base_path():
    sim, fabric = make_fabric()
    size = 1 << 20
    arrivals = []
    fabric.port("r0h1").receiver = lambda f: arrivals.append(sim.now)
    fabric.send(FabricFrame(src="r0h0", dst="r0h1", kind="net", size=size))
    sim.run()
    # frame_cycles with intra-rack endpoints equals the no-endpoint base.
    assert arrivals == [fabric.frame_cycles(size)]
    assert fabric.frame_cycles(size, "r0h0", "r0h1") == fabric.frame_cycles(size)


def test_cross_rack_delivery_is_slower_and_metered_on_trunks():
    sim, fabric = make_fabric()
    size = 1 << 20
    arrivals = []
    fabric.port("r1h0").receiver = lambda f: arrivals.append(sim.now)
    fabric.send(FabricFrame(src="r0h0", dst="r1h0", kind="net", size=size))
    sim.run()
    est = fabric.frame_cycles(size, "r0h0", "r1h0")
    assert est > fabric.frame_cycles(size)
    assert arrivals == [est]
    spine = fabric.spine_for("r0h0", "r1h0")
    assert fabric.trunks[(0, spine)].bytes_carried["out"] == size
    assert fabric.trunks[(1, spine)].bytes_carried["in"] == size
    assert fabric.stats()["trunk_bytes"] == 2 * size
    # Host-level cross_host metering still works unchanged.
    assert fabric.metrics.cross_host[("r0h0", "r1h0", "net")] == size


def test_trunk_oversubscription_contends_cross_rack_only():
    """At 4:1 the trunk is the bottleneck: cross-rack transfers finish
    later than the same transfer intra-rack."""
    sim, fabric = make_fabric(oversub=4.0)
    size = 4 << 20
    t_intra = []
    fabric.port("r0h1").receiver = lambda f: t_intra.append(sim.now)
    fabric.send(FabricFrame(src="r0h0", dst="r0h1", kind="net", size=size))
    sim.run()
    intra_done = t_intra[0]
    t_cross = []
    fabric.port("r1h0").receiver = lambda f: t_cross.append(sim.now)
    start = sim.now
    fabric.send(FabricFrame(src="r0h0", dst="r1h0", kind="net", size=size))
    sim.run()
    assert t_cross[0] - start > intra_done


def test_trunk_partition_blocks_cross_rack_not_intra_rack():
    sim, fabric = make_fabric(spines=1)
    plan = FaultPlan(
        [
            FaultSpec(
                kind="fabric_partition",
                rate=0.0,
                count=1,
                start=0,
                end=10_000_000_000,
                param=10_000_000_000,
                mechanisms=(SpineLeafFabric.trunk_name(0, 0),),
            )
        ]
    )
    fabric.faults = FaultInjector(fabric, plan, seed=0).attach()
    sim.run()
    assert fabric.faults.fabric_link_down(SpineLeafFabric.trunk_name(0, 0))
    assert fabric.path_blocked("r0h0", "r1h0")
    assert not fabric.path_blocked("r0h0", "r0h1")
    with pytest.raises(UndeliverableError):
        list(fabric.transfer("r0h0", "r1h0", size=4096, kind="net"))


def test_trunk_partition_opening_mid_flight_drops_the_frame():
    """A trunk on the route that goes dark while a cross-rack frame is in
    flight drops the frame at delivery, as a lost destination link does."""
    sim = Simulator(seed=0)
    fabric = SpineLeafFabric(
        sim, default_costs(), racks=2, hosts_per_rack=1, spines=1
    )
    fabric.attach("a", rack=0)
    fabric.attach("b", rack=1)
    plan = FaultPlan(
        [
            FaultSpec(
                kind="fabric_partition",
                start=1_000,
                end=10_000_000_000,
                mechanisms=(SpineLeafFabric.trunk_name(1, 0),),
            )
        ]
    )
    fabric.faults = FaultInjector(fabric, plan, seed=0).attach()
    errors = []

    def sender():
        try:
            yield from fabric.transfer("a", "b", size=1 << 20, kind="net")
        except UndeliverableError as exc:
            errors.append(str(exc))

    sim.spawn(sender(), "sender")
    sim.run()
    assert fabric.path_blocked("a", "b")
    assert errors == ["frame a -> b lost in flight"]
    assert fabric.undeliverable == 1
    assert fabric.port("b").frames["rx"] == 0
    assert fabric.metrics.cross_host_bytes() == 0


def test_admin_down_blocks_host_links():
    _, fabric = make_fabric()
    assert not fabric.path_blocked("r0h0", "r1h0")
    fabric.admin_down.add("r1h0")
    assert fabric.link_blocked("r1h0")
    assert fabric.path_blocked("r0h0", "r1h0")
    fabric.admin_down.discard("r1h0")
    assert not fabric.path_blocked("r0h0", "r1h0")


def test_unattached_host_is_undeliverable():
    _, fabric = make_fabric()
    with pytest.raises(UndeliverableError):
        fabric.send(FabricFrame(src="r0h0", dst="ghost", kind="net", size=64))


# ----------------------------------------------------------------------
# Transits: running a hop ahead of the heap changes no observable state
# ----------------------------------------------------------------------
def _flows(plan=None, step=None):
    """Stop-and-wait flows over one spine: two cross-rack flows contend
    for the same trunks, one runs the other way, one stays in its rack,
    and plain callbacks send frames of their own."""

    def scenario():
        sim, fabric = make_fabric(spines=1)
        if plan is not None:
            fabric.faults = FaultInjector(fabric, plan, seed=0).attach()
        deliveries = record_deliveries(sim, fabric)
        failed = []
        stop_and_wait(sim, fabric, "r0h0", "r1h0", 5, 256 << 10, log=failed)
        stop_and_wait(
            sim, fabric, "r0h1", "r1h1", 5, 64 << 10, kind="migration", log=failed
        )
        stop_and_wait(sim, fabric, "r1h1", "r0h0", 4, 128 << 10, log=failed)
        stop_and_wait(sim, fabric, "r1h0", "r1h1", 6, 32 << 10, log=failed)
        for when, src, dst in ((0, "r0h0", "r1h1"), (3_000, "r1h0", "r0h1")):
            frame = FabricFrame(
                src=src, dst=dst, kind="control", size=4096, payload=when
            )
            sim.call_at(when, lambda frame=frame: fabric.send(frame))
        steps = step(sim, fabric) if step is not None else sim.run()
        return deliveries, failed, steps, snapshot(sim, fabric)

    return scenario


def test_transit_run_ahead_matches_heap_on_shared_trunk(monkeypatch):
    trace, heap_trace, ahead = shipped_and_stepped(monkeypatch, _flows())
    assert trace == heap_trace
    deliveries, failed, _end, state = trace
    assert len(deliveries) == 5 + 5 + 4 + 6 + 2 and failed == []
    assert state[2]["trunk_bytes"] > 0
    assert ahead["transit_hops_ahead"] > 0


def test_transit_run_ahead_matches_heap_across_trunk_partition(monkeypatch):
    plan = FaultPlan(
        [
            FaultSpec(
                kind="fabric_partition",
                start=100_000,
                end=400_000,
                mechanisms=(SpineLeafFabric.trunk_name(1, 0),),
            )
        ]
    )
    trace, heap_trace, ahead = shipped_and_stepped(monkeypatch, _flows(plan))
    assert trace == heap_trace
    assert ahead["transit_hops_ahead"] > 0
    assert any("partitioned" in reason for *_rest, reason in trace[1])


def test_transit_run_ahead_matches_heap_on_host_loss_mid_flight(monkeypatch):
    plan = FaultPlan(
        [
            FaultSpec(
                kind="fabric_host_loss",
                start=150_000,
                end=500_000,
                mechanisms=("r1h0",),
            )
        ]
    )
    trace, heap_trace, ahead = shipped_and_stepped(monkeypatch, _flows(plan))
    assert trace == heap_trace
    assert ahead["transit_hops_ahead"] > 0
    assert any("lost in flight" in reason for *_rest, reason in trace[1])


@pytest.mark.parametrize("step", [step_until, step_events])
def test_transit_run_ahead_matches_heap_when_stepped(monkeypatch, step):
    trace, heap_trace, ahead = shipped_and_stepped(monkeypatch, _flows(step=step))
    assert trace == heap_trace
    # No hop runs ahead under a max_events budget.
    assert (ahead["transit_hops_ahead"] > 0) == (step is step_until)
    assert len(trace[2]) > 10


def test_cross_rack_hop_tied_with_an_earlier_callback_runs_after_it():
    """A callback due at exactly spine arrival + spine switch latency was
    queued before the hop onto the down trunk, so it sees that trunk idle."""
    sim, fabric = make_fabric(spines=1)
    size = 1 << 20
    fabric.send(FabricFrame(src="r0h0", dst="r1h0", kind="net", size=size))
    costs = fabric.costs
    uplink = fabric.port("r0h0").wire
    trunk_serialization = int(size * 8 / fabric.trunk_bps * sim.freq_hz)
    spine_arrival = (
        uplink._busy_until["out"]
        + uplink.latency
        + costs.fabric_switch_latency
        + trunk_serialization
        + costs.spine_latency
    )
    down_trunk = fabric.trunks[(1, 0)]
    seen = []
    sim.call_at(
        spine_arrival + costs.spine_switch_latency,
        lambda: seen.append(down_trunk._busy_until["in"]),
    )
    done = []
    fabric.port("r1h0").receiver = lambda f: done.append(sim.now)
    sim.run()
    assert seen == [0]
    assert done == [fabric.frame_cycles(size, "r0h0", "r1h0")]
