"""The paper's virtualization microbenchmarks (Table 1 / Table 3).

=============  =====================================================
Hypercall      VM -> hypervisor -> VM round trip, no work.
DevNotify      Virtio doorbell: MMIO write from the driver.
ProgramTimer   Program the LAPIC timer in TSC-deadline mode.
SendIPI        Send an IPI to an idle CPU, which must wake up and
               switch to the destination vCPU to receive it.
=============  =====================================================

Each returns average cycles per operation, directly comparable to the
paper's Table 3.
"""

from __future__ import annotations

from typing import Dict

from repro.hw.lapic import IPI_RESCHEDULE_VECTOR, TIMER_VECTOR
from repro.hw.ops import Op
from repro.hv.stack import Stack
from repro.metrics.hist import Histogram

__all__ = ["MICROBENCHMARKS", "run_microbenchmark", "run_all_microbenchmarks"]


def _bench_hypercall(stack: Stack, iterations: int) -> float:
    ctx = stack.ctx(0)
    sim = stack.sim

    def main():
        src = sim.ff.source("micro:hypercall")
        cap = stack.machine.request_capture
        start = sim.now
        left = iterations
        while left > 0:
            op_t0 = sim.now
            yield from ctx.execute(Op.VMCALL)
            if cap is not None:
                cap.observe(op_t0, sim.now)
            left -= 1
            if left:
                left -= src.observe(left)
        return (sim.now - start) / iterations

    return sim.run_process(main(), "hypercall")


def _bench_devnotify(stack: Stack, iterations: int) -> float:
    ctx = stack.ctx(0)
    sim = stack.sim
    device = stack.net.device if hasattr(stack.net, "device") else None
    if device is None:
        raise ValueError("DevNotify needs a virtio network device")

    def main():
        src = sim.ff.source("micro:devnotify")
        cap = stack.machine.request_capture
        start = sim.now
        left = iterations
        while left > 0:
            op_t0 = sim.now
            yield from ctx.execute(
                Op.MMIO_WRITE,
                addr=device.notify_addr,
                value=device.tx.index,
                device=device,
            )
            if cap is not None:
                cap.observe(op_t0, sim.now)
            left -= 1
            if left:
                left -= src.observe(left)
        return (sim.now - start) / iterations

    return sim.run_process(main(), "devnotify")


def _bench_program_timer(stack: Stack, iterations: int) -> float:
    ctx = stack.ctx(0)
    sim = stack.sim
    far = sim.cycles(0.05)  # deadline far enough not to fire mid-benchmark

    def main():
        src = sim.ff.source("micro:program-timer")
        cap = stack.machine.request_capture
        start = sim.now
        left = iterations
        while left > 0:
            op_t0 = sim.now
            yield from ctx.program_timer(ctx.read_tsc() + far, TIMER_VECTOR)
            if cap is not None:
                cap.observe(op_t0, sim.now)
            left -= 1
            if left:
                left -= src.observe(left)
        return (sim.now - start) / iterations

    return sim.run_process(main(), "program-timer")


def _bench_send_ipi(stack: Stack, iterations: int) -> float:
    """Send + receive latency with the destination idle (Table 1)."""
    sender = stack.ctx(0)
    receiver = stack.ctx(1)
    sim = stack.sim
    cap = stack.machine.request_capture
    # Per-IPI latencies go straight into a histogram: the exact integer
    # sum/count make the mean byte-identical to the raw-list math this
    # replaced, without an unbounded list.
    hist = Histogram()
    received = {"event": sim.event()}

    def receiver_loop():
        for _ in range(iterations):
            yield from receiver.wait_for_interrupt()
            received["event"].trigger(sim.now)

    def sender_loop():
        yield 2000  # let the receiver reach its idle wait
        for _ in range(iterations):
            received["event"] = sim.event()
            start = sim.now
            yield from sender.send_ipi(receiver.index, IPI_RESCHEDULE_VECTOR)
            arrival = yield received["event"]
            hist.record(arrival - start)
            if cap is not None:
                cap.observe(start, arrival)
            yield 3000  # let the receiver settle back into idle

    sim.spawn(receiver_loop(), "ipi-rx")
    proc = sim.spawn(sender_loop(), "ipi-tx")
    sim.run()
    if not proc.done:
        raise RuntimeError("SendIPI benchmark deadlocked")
    return hist.mean()


MICROBENCHMARKS = {
    "Hypercall": _bench_hypercall,
    "DevNotify": _bench_devnotify,
    "ProgramTimer": _bench_program_timer,
    "SendIPI": _bench_send_ipi,
}


def run_microbenchmark(stack: Stack, name: str, iterations: int = 50) -> float:
    """Run one microbenchmark on a built stack; returns cycles per op."""
    try:
        bench = MICROBENCHMARKS[name]
    except KeyError:
        raise ValueError(
            f"unknown microbenchmark {name!r}; choose from {sorted(MICROBENCHMARKS)}"
        ) from None
    return bench(stack, iterations)


def run_all_microbenchmarks(stack_factory, iterations: int = 50) -> Dict[str, float]:
    """Run every microbenchmark, each on a freshly built stack (so armed
    timers and counters don't leak between them)."""
    return {
        name: run_microbenchmark(stack_factory(), name, iterations)
        for name in MICROBENCHMARKS
    }
