"""Repeated L0 exits: batching changes host work, never simulated state.

``VCpu._trap_each`` hands the 2nd..Nth copies of a level-1 VMREAD/VMWRITE
run that L0 handled directly to ``KvmHypervisor.repeat_l0_vmx``, which
applies them in one step.  Every case below is a cell of the shared
shipped-vs-stepped differential (``tests/stepped.py``): batched, and
with fast-forward off, where every copy is dispatched in full.  Both
runs must end in the same simulated state: clock, result and every
``Metrics`` table.  The chain-id counter joins it where no epoch is
skipped (skipped epochs allocate no chain ids; every reader of them
vetoes skipping).  That batching does not move fast-forward's epoch
skipping is pinned per cell in ``tests/sim/test_fastforward.py``.
"""

import pytest

from repro.bench.configs import (
    FIG7_CONFIGS,
    FIG9_CONFIGS,
    FIG10_CONFIGS,
    TABLE3_CONFIGS,
)
from repro.bench.runner import DEFAULT_SCALES
from repro.faults.chains import ChainTracker
from repro.hv.stack import StackConfig, build_stack
from repro.hw.machine import Machine
from repro.hw.ops import Op
from repro.hw.vmx import VmcsField
from repro.sim import default_costs
from repro.workloads.apps import run_app
from repro.workloads.microbench import MICROBENCHMARKS, run_microbenchmark
from tests.stepped import shipped_and_stepped

TABLE3_ITERATIONS = 30


def _state(stack, result):
    return stack.sim.now, result, stack.metrics.snapshot()


def _config(configs, name):
    return dict(configs)[name]()


@pytest.fixture(params=[True, False], ids=["ff", "no-ff"])
def fast_forward(request, monkeypatch):
    """The environment a case starts in, as in CI's two legs; the
    differential sets its own on both sides, so both give one answer."""
    monkeypatch.setenv("REPRO_FAST_FORWARD", "1" if request.param else "0")
    return request.param


@pytest.mark.parametrize("config_name", [name for name, _ in TABLE3_CONFIGS])
@pytest.mark.parametrize("bench", list(MICROBENCHMARKS))
def test_table3_cell_identical(monkeypatch, fast_forward, bench, config_name):
    config = _config(TABLE3_CONFIGS, config_name)

    def run():
        stack = build_stack(config)
        return _state(stack, run_microbenchmark(stack, bench, TABLE3_ITERATIONS))

    batched, unbatched, ahead = shipped_and_stepped(monkeypatch, run)
    assert batched == unbatched
    if config.levels >= 2 and "DVH" not in config_name:
        # Every forwarded exit's guest-hypervisor handler issues a
        # VMREAD run at level 1: these cells must actually batch.
        assert ahead["exits_batched"] > 0


@pytest.mark.parametrize(
    "configs, config_name, app",
    [
        (FIG7_CONFIGS, "Nested VM", "netperf_rr"),
        (FIG9_CONFIGS, "L3", "memcached"),
        (FIG10_CONFIGS, "Nested VM (Xen)", "netperf_rr"),
    ],
    ids=["figure7", "figure9", "figure10"],
)
def test_figure_app_identical(monkeypatch, fast_forward, configs, config_name, app):
    config = _config(configs, config_name)
    scale = DEFAULT_SCALES[config.levels] / 4

    def run():
        stack = build_stack(config)
        return _state(stack, run_app(stack, app, scale=scale))

    batched, unbatched, ahead = shipped_and_stepped(monkeypatch, run)
    assert batched == unbatched
    assert ahead["exits_batched"] > 0


@pytest.mark.parametrize(
    "config",
    [
        StackConfig(levels=2, arch="arm"),
        StackConfig(levels=2, arch="riscv"),
        StackConfig(levels=2, guest_hv="xen"),
        StackConfig(levels=3, guest_hv="xen"),
    ],
    ids=["arm", "riscv", "xen-L2", "xen-L3"],
)
def test_other_platform_cells_identical(monkeypatch, fast_forward, config):
    def run():
        stack = build_stack(config)
        return _state(stack, run_microbenchmark(stack, "Hypercall", TABLE3_ITERATIONS))

    batched, unbatched, ahead = shipped_and_stepped(monkeypatch, run)
    assert batched == unbatched
    assert ahead["exits_batched"] > 0


def _hypercalls(stack, count):
    ctx = stack.ctx(0)

    def main():
        for _ in range(count):
            yield from ctx.execute(Op.VMCALL)

    return stack.sim.spawn(main(), "hypercalls")


def test_root_runs_take_one_chain_id_per_copy(monkeypatch):
    """A run issued outside any trap frame makes every copy the root of
    its own exit chain; a batch advances the chain-id counter as far."""

    def run():
        stack = build_stack(StackConfig(levels=2))
        stack.settle()
        l1 = stack.ctx(0).chain_vcpu(1)
        access = dict(vmcs=stack.ctx(0).vmcs, field=VmcsField.PROC_CONTROLS)

        def main():
            yield from l1.execute(Op.VMWRITE, count=9, value=0x55, **access)
            return (yield from l1.execute(Op.VMREAD, count=9, **access))

        result = stack.sim.run_process(main(), "root-runs")
        return _state(stack, (result, stack.machine._next_chain_id))

    batched, unbatched, ahead = shipped_and_stepped(monkeypatch, run)
    assert batched == unbatched
    assert batched[1][0] == 0x55
    assert ahead["exits_batched"] == 8 + 8


def vmread_tie_cell():
    """A root run of nine level-1 VMREADs driven by ``run(until=)`` to one
    cycle before its last copy ends, with the field rewritten at that
    return.  Stepped, the last copy has read the field by then; a batch
    that reached the end of the run would read it after the rewrite."""

    def start():
        stack = build_stack(StackConfig(levels=2))
        stack.settle()
        vcpu, vmcs = stack.ctx(0).chain_vcpu(1), stack.ctx(0).vmcs

        def main():
            value = yield from vcpu.execute(
                Op.VMREAD, count=9, vmcs=vmcs, field=VmcsField.PROC_CONTROLS
            )
            return value, stack.sim.now

        return stack, vmcs, stack.sim.spawn(main(), "vmreads")

    stack, _vmcs, proc = start()
    stack.sim.run()
    end = proc.result[1]
    stack, vmcs, proc = start()
    stack.sim.run(until=end - 1)
    vmcs.write(VmcsField.PROC_CONTROLS, 0x77)
    stack.sim.run()
    return _state(stack, proc.result)


def test_vmread_tie_at_a_run_until_return_identical(monkeypatch):
    batched, unbatched, ahead = shipped_and_stepped(monkeypatch, vmread_tie_cell)
    assert batched == unbatched
    assert batched[1][0] != 0x77
    # Eight copies batched in the run that finds the end, seven in the
    # run stopped short of it.
    assert ahead["exits_batched"] == 8 + 7


def _hypercall_states(step):
    """The state after every ``step(sim)`` while two L3 hypercalls run."""
    stack = build_stack(StackConfig(levels=3))
    stack.settle()
    proc = _hypercalls(stack, 2)
    states = []
    while not proc.done:
        step(stack.sim)
        states.append(_state(stack, None))
    return states


def test_run_until_boundaries_identical(monkeypatch):
    """Stepping with ``run(until=)`` stops mid-run of a VMREAD batch;
    every boundary must show the micro-stepped state."""
    batched, unbatched, ahead = shipped_and_stepped(
        monkeypatch,
        lambda: _hypercall_states(lambda sim: sim.run(until=sim.now + 997)),
    )
    assert batched == unbatched
    _, _, whole = shipped_and_stepped(
        monkeypatch, lambda: _hypercall_states(lambda sim: sim.run())
    )
    # The boundaries cut some batches short: the copies left were
    # dispatched in full.
    assert 0 < ahead["exits_batched"] < whole["exits_batched"]


def test_run_max_events_boundaries_identical(monkeypatch):
    """A batch is one engine step, so none runs while a ``run(max_events=)``
    budget is active: every budgeted return shows the micro-stepped
    state.  An unbudgeted run afterwards batches again."""
    budgeted = []

    def run():
        stack = build_stack(StackConfig(levels=3))
        stack.settle()
        proc = _hypercalls(stack, 2)
        states = []
        before = stack.sim.exits_batched
        while not proc.done:
            stack.sim.run(max_events=37)
            states.append(_state(stack, None))
        budgeted.append(stack.sim.exits_batched - before)
        proc = _hypercalls(stack, 1)
        stack.sim.run()
        states.append(_state(stack, proc.done))
        return states

    batched, unbatched, ahead = shipped_and_stepped(monkeypatch, run)
    assert batched == unbatched
    assert budgeted == [0, 0]
    assert ahead["exits_batched"] > 0


@pytest.mark.parametrize("ff", [True, False], ids=["ff", "no-ff"])
def test_float_charges_fall_back_to_per_copy_dispatch(monkeypatch, ff):
    """Non-integer cycle charges keep their order-sensitive per-copy
    additions: a float cost model, or a float cycle total, is never
    batched."""
    monkeypatch.setenv("REPRO_FAST_FORWARD", "1" if ff else "0")

    def float_costs():
        machine = Machine(costs=default_costs().scaled(emul_vmcs_access=130.25))
        stack = build_stack(StackConfig(levels=2), machine=machine)
        return _state(stack, run_microbenchmark(stack, "Hypercall", TABLE3_ITERATIONS))

    def float_total():
        stack = build_stack(StackConfig(levels=2))
        stack.metrics.charge("l0_emul", 0.5)
        return _state(stack, run_microbenchmark(stack, "Hypercall", TABLE3_ITERATIONS))

    for run in (float_costs, float_total):
        batched, unbatched, ahead = shipped_and_stepped(monkeypatch, run)
        assert ahead["exits_batched"] == 0
        assert batched == unbatched


@pytest.mark.parametrize("observer", ["spans", "chain_tracker"])
def test_observers_see_every_copy(monkeypatch, observer):
    """An attached span collector or chain tracker vetoes batching: it
    hears about every simulated exit, one trap frame each."""

    def run():
        stack = build_stack(StackConfig(levels=3))
        before = stack.metrics.total_exits()
        machine = stack.machine
        if observer == "spans":
            seen = machine.enable_span_tracing()
        else:
            seen = machine.chain_tracker = ChainTracker()
        stack.settle()
        proc = _hypercalls(stack, 2)
        stack.sim.run()
        assert proc.done
        if observer == "spans":
            frames = seen.spans_opened
        else:
            frames = sum(seen.exits.values())
        return _state(stack, frames), stack.metrics.total_exits() - before

    (batched, exits), (unbatched, _), ahead = shipped_and_stepped(monkeypatch, run)
    assert ahead["exits_batched"] == 0
    assert batched == unbatched
    assert batched[1] == exits > 300
