"""Traces for the fabric transit cells of the shipped-vs-stepped
differential (``tests/stepped.py``).

A transit runs a hop directly when it is due by
``Simulator.run_ahead_limit()`` and otherwise schedules it on the heap,
as it always does with fast-forward off.  A scenario's trace holds every
delivery's cycle and order, every wire's busy-until and carried bytes,
``fabric.stats()`` and the cross-host table.  Equal traces mean running
ahead changed nothing but host work.
"""

from repro.cluster.fabric import UndeliverableError


def wires(fabric):
    """Every wire of ``fabric``: host uplinks, then any spine trunks."""
    out = [port.wire for _host, port in sorted(fabric.ports.items())]
    out += [wire for _key, wire in sorted(getattr(fabric, "trunks", {}).items())]
    return out


def snapshot(sim, fabric):
    """The fabric's observable state at this instant."""
    return (
        sim.now,
        [
            (
                wire._busy_until["out"],
                wire._busy_until["in"],
                dict(wire.bytes_carried),
            )
            for wire in wires(fabric)
        ],
        fabric.stats(),
        dict(fabric.metrics.cross_host),
        dict(fabric.metrics.faults),
        {host: dict(port.frames) for host, port in fabric.ports.items()},
    )


def record_deliveries(sim, fabric):
    """Install receivers on every port; returns the list they fill with
    ``(cycle, dst, src, payload)`` in delivery order."""
    deliveries = []
    for host, port in fabric.ports.items():
        port.receiver = lambda frame, host=host: deliveries.append(
            (sim.now, host, frame.src, frame.payload)
        )
    return deliveries


def step_until(sim, fabric, stride=49_999):
    """Run in ``run(until=)`` slices; the state at every return."""
    snaps = []
    while sim.pending_events:
        sim.run(until=sim.now + stride)
        snaps.append(snapshot(sim, fabric))
    return snaps


def step_events(sim, fabric, budget=3):
    """Run in ``run(max_events=)`` slices; the state at every return."""
    snaps = []
    while sim.pending_events:
        sim.run(max_events=budget)
        snaps.append(snapshot(sim, fabric))
    return snaps


def stop_and_wait(sim, fabric, src, dst, frames, size, kind="net", log=None):
    """A process sending ``frames`` frames src -> dst one at a time,
    each after the last was delivered.  Undeliverable frames are logged
    with the cycle they failed at and the flow moves on."""

    def flow():
        for i in range(frames):
            try:
                yield from fabric.transfer(src, dst, size, kind, payload=(src, i))
            except UndeliverableError as exc:
                if log is None:
                    raise
                log.append((sim.now, src, dst, i, str(exc)))
                yield 1_000

    return sim.spawn(flow(), f"{src}->{dst}")

