"""Tests for DVH migration (§3.6)."""

import pytest

from repro.core.features import DvhFeatures
from repro.core.migration import (
    LiveMigration,
    MigrationError,
    MigrationNotSupported,
    add_migration_capability,
    capture_device_state,
    dirtier,
    set_device_dirty_logging,
)
from repro.hv.stack import StackConfig, build_stack
from repro.hw.devices.virtio import VirtioDevice
from repro.hw.mem import PAGE_SIZE, DirtyLog
from repro.hw.pci import CapabilityId


def make_dvh(levels=2):
    stack = build_stack(
        StackConfig(levels=levels, io_model="vp", dvh=DvhFeatures.full())
    )
    stack.settle()
    return stack


# ----------------------------------------------------------------------
# The PCI migration capability
# ----------------------------------------------------------------------
def test_capability_registers():
    dev = VirtioDevice("d", provider_level=0)
    cap = add_migration_capability(dev)
    assert dev.has_capability(CapabilityId.MIGRATION)
    assert set(cap.registers) == {"ctrl", "state_addr", "dirty_log_addr"}


def test_capture_requires_capability():
    dev = VirtioDevice("d", provider_level=0)
    with pytest.raises(MigrationNotSupported):
        capture_device_state(dev, backend=None)


def test_capture_returns_state_size():
    stack = make_dvh()
    dev = stack.net.device
    backend = stack.machine.host_hv.backends[dev]
    nbytes = capture_device_state(dev, backend)
    assert nbytes > 0


def test_dirty_logging_through_capability():
    """DMA writes land in the device dirty log while enabled."""
    stack = make_dvh()
    dev = stack.net.device
    backend = stack.machine.host_hv.backends[dev]
    log = DirtyLog()
    set_device_dirty_logging(dev, backend, log)
    received = []
    ctx = stack.ctx(0)

    def server():
        while not received:
            msgs = yield from stack.net.poll_rx(queue=0, ctx=ctx)
            if not msgs:
                yield from ctx.wait_for_interrupt()
                continue
            received.extend(msgs)

    stack.sim.spawn(server(), "srv")
    stack.machine.client.send(stack.flow, PAGE_SIZE * 2, payload="dma")
    stack.sim.run()
    assert len(log) >= 2  # at least two pages dirtied by the DMA
    set_device_dirty_logging(dev, backend, None)
    assert backend.dirty_log is None


# ----------------------------------------------------------------------
# Live migration
# ----------------------------------------------------------------------
def test_passthrough_vm_refuses():
    stack = build_stack(StackConfig(levels=2, io_model="passthrough"))
    stack.settle()
    mig = LiveMigration(stack.machine, stack.leaf_vm)
    with pytest.raises(MigrationNotSupported):
        stack.sim.run_process(mig.run())


def test_migration_converges_and_reports():
    stack = make_dvh()
    mig = LiveMigration(stack.machine, stack.leaf_vm, devices=[stack.net.device])
    res = stack.sim.run_process(mig.run())
    assert res.total_s > 0
    assert res.downtime_s <= mig.downtime_target_s + 0.01
    assert res.rounds >= 1
    assert res.bytes_transferred >= stack.leaf_vm.memory.size_bytes // 512
    assert res.dvh_state_saved  # virtual timer/VCIMT state rode along


def test_dirty_workload_adds_rounds():
    """A workload dirtying memory during pre-copy forces extra rounds."""
    quiet = make_dvh()
    quiet_res = quiet.sim.run_process(
        LiveMigration(quiet.machine, quiet.leaf_vm).run()
    )

    busy = make_dvh()
    ctx = busy.ctx(1)

    def dirtier():
        for i in range(4000):
            yield from ctx.compute(100_000)
            ctx.mem_write(0x1000_0000 + (i % 512) * PAGE_SIZE, PAGE_SIZE)

    busy.sim.spawn(dirtier(), "dirtier")
    busy_res = busy.sim.run_process(LiveMigration(busy.machine, busy.leaf_vm).run())
    assert busy_res.bytes_transferred > quiet_res.bytes_transferred
    assert busy_res.rounds >= quiet_res.rounds


def test_max_rounds_bound():
    """A pathological dirty rate still terminates (stop-and-copy after
    max_rounds, accepting the downtime)."""
    stack = make_dvh()
    ctx = stack.ctx(1)
    mig = LiveMigration(stack.machine, stack.leaf_vm, max_rounds=3)
    proc = stack.sim.spawn(mig.run(), "migration")

    def firehose():
        # Re-dirties a 2000-page working set far faster than the link
        # can drain it: pre-copy can never converge.
        i = 0
        while not proc.done:
            yield from ctx.compute(20_000)
            ctx.mem_write(0x1000_0000 + (i % 2_000) * PAGE_SIZE, PAGE_SIZE)
            i += 1

    stack.sim.spawn(firehose(), "firehose")
    stack.sim.run()
    assert proc.done
    assert proc.result.rounds <= 3


def test_l1_migration_includes_nested_footprint():
    stack = make_dvh()
    nested = stack.sim.run_process(
        LiveMigration(stack.machine, stack.leaf_vm).run()
    )
    stack2 = make_dvh()
    whole = stack2.sim.run_process(
        LiveMigration(stack2.machine, stack2.vms[0]).run()
    )
    ratio = whole.bytes_transferred / nested.bytes_transferred
    assert 1.8 <= ratio <= 2.2  # 24 GB vs 12 GB: "roughly twice"


def test_backend_paused_during_stop_and_copy_then_resumed():
    stack = make_dvh()
    backend = stack.machine.host_hv.backends[stack.net.device]
    mig = LiveMigration(stack.machine, stack.leaf_vm, devices=[stack.net.device])
    stack.sim.run_process(mig.run())
    assert backend.paused is False  # resumed after switch-over
    assert backend.dirty_log is None  # logging disabled again


def _spawn_firehose(stack, proc):
    """Re-dirty a 2000-page working set faster than the link drains it."""
    stack.sim.spawn(
        dirtier(stack.machine, stack.ctx(1), proc, 0x1000_0000, 1, 2_000, 20_000),
        "firehose",
    )


def test_downtime_limit_raises_on_non_convergence():
    """With a hard downtime limit set, a dirty rate that cannot converge
    raises MigrationError instead of eating an unbounded stop-and-copy."""
    stack = make_dvh()
    backend = stack.machine.host_hv.backends[stack.net.device]
    mig = LiveMigration(
        stack.machine,
        stack.leaf_vm,
        devices=[stack.net.device],
        max_rounds=3,
        downtime_limit_s=0.0005,
    )
    proc = stack.sim.spawn(mig.run(), "migration")
    _spawn_firehose(stack, proc)
    with pytest.raises(MigrationError, match="did not converge"):
        stack.sim.run()
    # The abort is clean: the source VM keeps running, the backend is
    # resumed, and dirty logging is off.
    assert backend.paused is False
    assert backend.dirty_log is None


def test_downtime_limit_ignored_when_converged():
    """A quiet VM converges within the round budget; the limit never
    triggers and the result honors the downtime target."""
    stack = make_dvh()
    mig = LiveMigration(
        stack.machine, stack.leaf_vm, downtime_limit_s=0.05
    )
    res = stack.sim.run_process(mig.run())
    assert res.downtime_s <= 0.05
    assert res.retries == 0


def test_no_limit_keeps_legacy_termination():
    """Without the opt-in limit, the pathological case still terminates
    by accepting the long stop-and-copy (the pre-existing contract)."""
    stack = make_dvh()
    mig = LiveMigration(stack.machine, stack.leaf_vm, max_rounds=3)
    proc = stack.sim.spawn(mig.run(), "migration")
    _spawn_firehose(stack, proc)
    stack.sim.run()
    assert proc.done
    assert proc.result.rounds <= 3


def test_custom_bandwidth_scales_time():
    slow = make_dvh()
    fast = make_dvh()
    r_slow = slow.sim.run_process(
        LiveMigration(slow.machine, slow.leaf_vm, bandwidth_bps=100e6).run()
    )
    r_fast = fast.sim.run_process(
        LiveMigration(fast.machine, fast.leaf_vm, bandwidth_bps=1e9).run()
    )
    assert r_slow.total_s > 5 * r_fast.total_s
