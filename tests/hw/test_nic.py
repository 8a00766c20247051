"""Unit tests for the NIC, SR-IOV, and the rate-limited wire."""

import pytest

from repro.hw.devices.nic import Packet, PhysicalNic, RemoteClient, Wire
from repro.hw.pci import CapabilityId
from repro.sim import Simulator, default_costs


def make_wire(sim, bps=10_000_000_000.0, latency=100):
    return Wire(sim, bps, latency)


def test_wire_delivery_latency_and_serialization():
    sim = Simulator(freq_hz=1_000_000_000)  # 1 GHz: 1 cycle = 1ns
    wire = make_wire(sim, bps=1_000_000_000.0, latency=500)  # 1 Gb/s
    got = []
    # 1000 bytes at 1Gb/s = 8000 ns serialization + 500 latency.
    wire.transmit(Packet("f", 1000), lambda p: got.append(sim.now))
    sim.run()
    assert got == [8500]


def test_wire_serialization_queues_back_to_back():
    sim = Simulator(freq_hz=1_000_000_000)
    wire = make_wire(sim, bps=1_000_000_000.0, latency=0)
    times = []
    for _ in range(3):
        wire.transmit(Packet("f", 1000), lambda p: times.append(sim.now))
    sim.run()
    assert times == [8000, 16000, 24000]  # line rate enforced


def test_wire_directions_independent():
    sim = Simulator(freq_hz=1_000_000_000)
    wire = make_wire(sim, bps=1_000_000_000.0, latency=0)
    times = {}
    wire.transmit(Packet("f", 1000, inbound=True), lambda p: times.setdefault("in", sim.now))
    wire.transmit(Packet("f", 1000, inbound=False), lambda p: times.setdefault("out", sim.now))
    sim.run()
    assert times["in"] == times["out"] == 8000


def test_nic_flow_steering():
    sim = Simulator()
    nic = PhysicalNic("eth0", make_wire(sim))
    got = []
    nic.register_flow("tcp:5001", got.append)
    pkt = Packet("tcp:5001", 64)
    nic.rx(pkt)
    assert got == [pkt]
    nic.rx(Packet("tcp:9999", 64))  # unknown flow dropped
    assert len(got) == 1
    nic.unregister_flow("tcp:5001")
    nic.rx(Packet("tcp:5001", 64))
    assert len(got) == 1


def test_sriov_vf_creation_limit():
    sim = Simulator()
    nic = PhysicalNic("eth0", make_wire(sim), num_vfs=2)
    vf0 = nic.create_vf()
    vf1 = nic.create_vf()
    assert vf0.pf is nic and vf1.name == "eth0.vf1"
    with pytest.raises(RuntimeError):
        nic.create_vf()
    cap = nic.find_capability(CapabilityId.SRIOV)
    assert cap.registers["num_vfs"] == 2


def test_vf_doorbell():
    sim = Simulator()
    nic = PhysicalNic("eth0", make_wire(sim))
    vf = nic.create_vf()
    rings = []
    vf.on_doorbell = lambda: rings.append(True)
    vf.mmio_write(0, 1)
    assert rings == [True]


def test_remote_client_send():
    sim = Simulator()
    costs = default_costs()
    wire = make_wire(sim, latency=100)
    nic = PhysicalNic("eth0", wire)
    got = []
    nic.register_flow("rr", lambda p: got.append((sim.now, p.size)))
    client = RemoteClient(sim, wire, nic, costs)
    client.send("rr", 1)
    client.send_after(5000, "rr", 2)
    sim.run()
    assert len(got) == 2
    assert got[0][0] >= 100  # wire latency applied
    assert got[1][0] >= 5100


# ----------------------------------------------------------------------
# RemoteClient: direct unit coverage (flow lifecycle, saturation, wire
# accounting)
# ----------------------------------------------------------------------
def make_client(sim, bps=1_000_000_000.0, latency=100):
    costs = default_costs()
    wire = make_wire(sim, bps=bps, latency=latency)
    nic = PhysicalNic("eth0", wire)
    return RemoteClient(sim, wire, nic, costs), wire, nic


def test_remote_client_receive_register_and_off():
    sim = Simulator()
    client, _wire, _nic = make_client(sim)
    got = []
    client.on_receive("rr", got.append)
    pkt = Packet("rr", 64, inbound=False)
    client.receive(pkt)
    assert got == [pkt]
    client.receive(Packet("other", 64, inbound=False))  # unknown flow dropped
    assert len(got) == 1
    client.off_receive("rr")
    client.receive(Packet("rr", 64, inbound=False))  # socket closed
    assert len(got) == 1
    client.off_receive("rr")  # idempotent


def test_remote_client_rx_under_saturated_wire():
    """A burst larger than the wire can carry instantaneously must be
    delivered completely, in order, at exactly line rate — no packet is
    lost or reordered by queueing, and latency is per-packet on top of
    the serialization backlog."""
    sim = Simulator(freq_hz=1_000_000_000)  # 1 cycle = 1 ns
    client, wire, nic = make_client(sim, bps=1_000_000_000.0, latency=500)
    got = []
    nic.register_flow("stream", lambda p: got.append((sim.now, p.payload)))
    for i in range(10):
        client.send("stream", 1000, payload=i)  # 8000 ns each at 1 Gb/s
    sim.run()
    assert [p for _, p in got] == list(range(10))  # in order, none lost
    assert [t for t, _ in got] == [8000 * (i + 1) + 500 for i in range(10)]
    # The backlog is visible while queued, drained afterwards.
    assert wire._busy_until["in"] == 80000
    assert sim.now >= 80000


def test_remote_client_send_after_forwards_wire_size():
    """Deferred sends must serialize with their on-wire size, exactly
    like immediate sends — wire_size used to be dropped on the floor."""
    sim = Simulator(freq_hz=1_000_000_000)
    client, wire, nic = make_client(sim, bps=1_000_000_000.0, latency=0)
    got = []
    nic.register_flow("f", lambda p: got.append(sim.now))
    client.send_after(0, "f", 1000, wire_size=2000)
    sim.run()
    assert got == [16000]  # 2000 on-wire bytes, not 1000
    assert wire.bytes_carried["in"] == 2000


def test_wire_bytes_carried_meters_on_wire_size():
    """bytes_carried counts what occupied the wire (headers included),
    matching the time the direction was busy."""
    sim = Simulator(freq_hz=1_000_000_000)
    wire = make_wire(sim, bps=1_000_000_000.0, latency=0)
    wire.transmit(Packet("f", 1000), lambda p: None, wire_size=1500)
    wire.transmit(Packet("f", 1000, inbound=False), lambda p: None)
    sim.run()
    assert wire.bytes_carried["in"] == 1500  # on-wire, not goodput
    assert wire.bytes_carried["out"] == 1000  # default: goodput == wire
    assert wire._busy_until["in"] == 12000
    assert wire._busy_until["out"] == 8000
