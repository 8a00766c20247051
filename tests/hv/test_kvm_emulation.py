"""Tests for L0's emulation: timers (with TSC offsets), IPIs/VCIMT,
HLT/wake, and nested VMX (merge)."""

import pytest

from repro.core.features import DvhFeatures
from repro.hv.stack import StackConfig, build_stack
from repro.hw.lapic import TIMER_VECTOR
from repro.hw.ops import Op
from repro.hw.vmx import VmcsField


def make(levels=2, io="virtio", dvh=None, **kw):
    stack = build_stack(
        StackConfig(levels=levels, io_model=io, dvh=dvh or DvhFeatures.none(), **kw)
    )
    stack.settle()
    return stack


# ----------------------------------------------------------------------
# Timers
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "levels,dvh",
    [
        (1, DvhFeatures.none()),
        (2, DvhFeatures.none()),
        (2, DvhFeatures.full()),
        (3, DvhFeatures.full()),
    ],
)
def test_timer_fires_at_guest_deadline(levels, dvh):
    """Regardless of level and DVH, a timer armed for guest-TSC T fires
    when the guest's TSC reaches T — the offset arithmetic of §3.2."""
    io = "vp" if (dvh.virtual_passthrough and levels >= 2) else "virtio"
    stack = make(levels=levels, io=io, dvh=dvh)
    ctx = stack.ctx(0)
    log = {}
    delay = 500_000

    def guest():
        deadline = ctx.read_tsc() + delay
        host_start = stack.sim.now
        yield from ctx.program_timer(deadline, TIMER_VECTOR)
        vector = yield from ctx.wait_for_interrupt()
        log["vector"] = vector
        log["elapsed"] = stack.sim.now - host_start

    stack.sim.run_process(guest())
    assert log["vector"] == TIMER_VECTOR
    assert log["elapsed"] >= delay
    # Fire + wake chain should not add more than ~100K cycles even fully
    # forwarded.
    assert log["elapsed"] < delay + 150_000


def test_timer_reprogram_cancels_previous():
    stack = make(levels=2, io="vp", dvh=DvhFeatures.full())
    ctx = stack.ctx(0)
    fired = []

    def guest():
        yield from ctx.program_timer(ctx.read_tsc() + 100_000)
        yield from ctx.program_timer(ctx.read_tsc() + 900_000)
        vector = yield from ctx.wait_for_interrupt()
        fired.append((stack.sim.now, vector))

    stack.sim.run_process(guest())
    # Only the second deadline fires (the first was cancelled).
    assert len(fired) == 1
    assert fired[0][0] >= 900_000
    assert not ctx.lapic.has_pending()


def test_guest_tsc_offsets_differ_per_level():
    stack = make(levels=3)
    tscs = [v.read_tsc() for v in stack.ctx(0)._chain]
    assert len(set(tscs)) == 3  # distinct offsets at each level


# ----------------------------------------------------------------------
# IPIs
# ----------------------------------------------------------------------
def test_ipi_delivered_between_l1_vcpus():
    stack = make(levels=1)
    a, b = stack.ctx(0), stack.ctx(1)
    got = {}

    def receiver():
        got["vector"] = yield from b.wait_for_interrupt()

    def sender():
        yield 1000
        yield from a.send_ipi(1, 0xFD)

    stack.sim.spawn(receiver(), "rx")
    stack.sim.spawn(sender(), "tx")
    stack.sim.run()
    assert got["vector"] == 0xFD


def test_virtual_ipi_uses_vcimt(monkeypatch):
    """§3.3: the destination is found through the VCIMT in the guest
    hypervisor's memory, keyed by destination vCPU number."""
    stack = make(levels=2, io="vp", dvh=DvhFeatures.full())
    leaf_vm = stack.leaf_vm
    assert leaf_vm.vcimtar is not None
    manager_vm = leaf_vm.manager.vm
    from repro.hw.vmx import VCIMT_ENTRY_SIZE

    entry = manager_vm.memory.read(leaf_vm.vcimtar + VCIMT_ENTRY_SIZE * 1)
    assert entry is stack.ctx(1)  # vCPU 1's entry resolves to vCPU 1


def test_virtual_ipi_without_table_raises():
    stack = make(levels=2, io="virtio", dvh=DvhFeatures.none())
    ctx = stack.ctx(0)
    # Force-enable the control bit without doing the VCIMT setup.
    ctx.vmcs.controls.virtual_ipi_enable = True
    with pytest.raises(RuntimeError, match="VCIMT"):
        stack.sim.run_process(ctx.send_ipi(1, 0xFD))


def test_nested_ipi_roundtrip_without_dvh():
    stack = make(levels=2)
    a, b = stack.ctx(0), stack.ctx(1)
    got = {}

    def receiver():
        got["vector"] = yield from b.wait_for_interrupt()
        got["at"] = stack.sim.now

    def sender():
        yield 1000
        yield from a.send_ipi(1, 0xFD)

    stack.sim.spawn(receiver(), "rx")
    stack.sim.spawn(sender(), "tx")
    stack.sim.run()
    assert got["vector"] == 0xFD
    # Emulated through the guest hypervisor: expensive.
    assert got["at"] > 20_000


# ----------------------------------------------------------------------
# Nested VMX emulation
# ----------------------------------------------------------------------
def test_vmresume_merges_vmcs12_into_merged():
    stack = make(levels=2)
    leaf = stack.ctx(0)
    l1 = leaf.chain_vcpu(1)
    leaf.vmcs.write(VmcsField.GUEST_RIP, 0xCAFE)
    leaf.vmcs.write(VmcsField.TSC_OFFSET, -42)

    def resume():
        yield from l1.execute(Op.VMRESUME, target_vcpu=leaf, vmcs=leaf.vmcs)

    stack.sim.run_process(resume())
    assert leaf.merged_vmcs.read(VmcsField.GUEST_RIP) == 0xCAFE
    # Merged offset is the chain total, not just the leaf's.
    assert leaf.merged_vmcs.read(VmcsField.TSC_OFFSET) == leaf.total_tsc_offset()


def test_vmresume_syncs_posted_interrupts():
    stack = make(levels=2)
    leaf = stack.ctx(0)
    l1 = leaf.chain_vcpu(1)
    leaf.pi_desc.post(0x55)

    def resume():
        yield from l1.execute(Op.VMRESUME, target_vcpu=leaf, vmcs=leaf.vmcs)

    stack.sim.run_process(resume())
    assert 0x55 in leaf.lapic.irr
    assert not leaf.pi_desc.has_pending


def test_vmread_vmwrite_emulation_touches_fields():
    stack = make(levels=2)
    leaf = stack.ctx(0)
    l1 = leaf.chain_vcpu(1)

    def ops():
        yield from l1.execute(
            Op.VMWRITE, vmcs=leaf.vmcs, field=VmcsField.EPT_POINTER, value=0xAB
        )
        value = yield from l1.execute(
            Op.VMREAD, vmcs=leaf.vmcs, field=VmcsField.EPT_POINTER
        )
        return value

    assert stack.sim.run_process(ops()) == 0xAB


# ----------------------------------------------------------------------
# Wake races
# ----------------------------------------------------------------------
def test_interrupt_racing_idle_descent_not_lost():
    """An interrupt arriving while the idle chain is still descending
    must not be lost (the wake-pending latch)."""
    stack = make(levels=2)  # non-DVH: long descent through L1
    ctx = stack.ctx(0)
    got = {}

    def guest():
        got["vector"] = yield from ctx.wait_for_interrupt()

    # Fire mid-descent: a couple of exits into the HLT forwarding chain.
    def interrupt():
        ctx.pi_desc.post(0x44)
        ctx.pcpu.wake()

    stack.sim.call_after(3_000, interrupt)
    stack.sim.spawn(guest(), "guest")
    stack.sim.run()
    assert got["vector"] == 0x44


def test_injection_exit_cost_grows_per_level():
    l2 = make(levels=2)
    l3 = make(levels=3)
    c2 = l2.machine.host_hv.injection_exit_cost(l2.ctx(0))
    c3 = l3.machine.host_hv.injection_exit_cost(l3.ctx(0))
    assert c3 > 5 * c2
    assert c2 > 10_000
