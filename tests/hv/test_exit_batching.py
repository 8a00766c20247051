"""Repeated L0 exits: batching changes host work, never simulated state.

``VCpu._trap_each`` hands the 2nd..Nth copies of a level-1 VMREAD/VMWRITE
run that L0 handled directly to ``KvmHypervisor.repeat_l0_vmx``, which
applies them in one step.  Every case below runs twice, batched and with
batching vetoed (``repeatable_l0_vmx`` patched to return 0, so each copy
is dispatched in full), and both runs must end in the same simulated
state: clock, result, every ``Metrics`` table and the chain-id counter
(and the same fast-forward decisions).
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
from repro.hv.kvm import KvmHypervisor
from repro.hv.stack import StackConfig, build_stack
from repro.hw.machine import Machine
from repro.hw.ops import Op
from repro.hw.vmx import VmcsField
from repro.sim import default_costs
from repro.workloads.apps import run_app
from repro.workloads.microbench import MICROBENCHMARKS, run_microbenchmark

TABLE3_ITERATIONS = 30


def _veto(m: pytest.MonkeyPatch) -> None:
    m.setattr(KvmHypervisor, "repeatable_l0_vmx", lambda self, left: 0)


def _spy(m: pytest.MonkeyPatch) -> list:
    """Record the ``k`` of every batch ``repeat_l0_vmx`` applies."""
    batches: list = []
    repeat = KvmHypervisor.repeat_l0_vmx

    def spy(self, vcpu, exit_, k):
        batches.append(k)
        return repeat(self, vcpu, exit_, k)

    m.setattr(KvmHypervisor, "repeat_l0_vmx", spy)
    return batches


def _state(stack, result):
    # The fast-forward counters join the comparison: batching must not
    # change which epochs a periodic source confirms or skips.
    return (
        stack.sim.now,
        result,
        stack.metrics.snapshot(),
        stack.machine._next_chain_id,
        stack.sim.ff.stats(),
    )


def _both(monkeypatch, run):
    """(batched state, unbatched state, batches applied) of ``run()``."""
    with monkeypatch.context() as m:
        batches = _spy(m)
        batched = run()
    with monkeypatch.context() as m:
        _veto(m)
        unbatched = run()
    return batched, unbatched, batches


def _config(configs, name):
    return dict(configs)[name]()


@pytest.fixture(params=[True, False], ids=["ff", "no-ff"])
def fast_forward(request, monkeypatch):
    monkeypatch.setenv("REPRO_FAST_FORWARD", "1" if request.param else "0")
    return request.param


@pytest.mark.parametrize("config_name", [name for name, _ in TABLE3_CONFIGS])
@pytest.mark.parametrize("bench", list(MICROBENCHMARKS))
def test_table3_cell_identical(monkeypatch, fast_forward, bench, config_name):
    config = _config(TABLE3_CONFIGS, config_name)

    def run():
        stack = build_stack(config)
        return _state(stack, run_microbenchmark(stack, bench, TABLE3_ITERATIONS))

    batched, unbatched, batches = _both(monkeypatch, run)
    assert batched == unbatched
    if config.levels >= 2 and "DVH" not in config_name:
        # Every forwarded exit's guest-hypervisor handler issues a
        # VMREAD run at level 1: these cells must actually batch.
        assert sum(batches) > 0


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

    batched, unbatched, batches = _both(monkeypatch, run)
    assert batched == unbatched
    assert sum(batches) > 0


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

    batched, unbatched, batches = _both(monkeypatch, run)
    assert batched == unbatched
    assert sum(batches) > 0


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

        return _state(stack, stack.sim.run_process(main(), "root-runs"))

    batched, unbatched, batches = _both(monkeypatch, run)
    assert batched == unbatched
    assert batched[1] == 0x55
    assert batches == [8, 8]


def test_run_until_boundaries_identical(monkeypatch):
    """Stepping with ``run(until=)`` stops mid-run of a VMREAD batch;
    every boundary must show the micro-stepped state."""
    granted = []

    def run():
        stack = build_stack(StackConfig(levels=3))
        stack.settle()
        proc = _hypercalls(stack, 2)
        states = []
        while not proc.done:
            stack.sim.run(until=stack.sim.now + 997)
            states.append(_state(stack, None))
        return states

    with monkeypatch.context() as m:
        repeatable = KvmHypervisor.repeatable_l0_vmx

        def record(self, left):
            k = repeatable(self, left)
            granted.append((left, k))
            return k

        m.setattr(KvmHypervisor, "repeatable_l0_vmx", record)
        batches = _spy(m)
        batched = run()
    with monkeypatch.context() as m:
        _veto(m)
        unbatched = run()
    assert batched == unbatched
    assert sum(batches) > 0
    # The horizon cut some batches short of the copies that were left.
    assert any(k < left for left, k in granted)


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
        before = len(batches)
        while not proc.done:
            stack.sim.run(max_events=37)
            states.append(_state(stack, None))
        budgeted.append(len(batches) - before)
        proc = _hypercalls(stack, 1)
        stack.sim.run()
        states.append(_state(stack, proc.done))
        return states

    with monkeypatch.context() as m:
        batches = _spy(m)
        batched = run()
    with monkeypatch.context() as m:
        _veto(m)
        unbatched = run()
    assert batched == unbatched
    assert budgeted[0] == 0
    assert sum(batches) > 0


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
        batched, unbatched, batches = _both(monkeypatch, run)
        assert batches == []
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

    (batched, exits), (unbatched, _), batches = _both(monkeypatch, run)
    assert batches == []
    assert batched == unbatched
    assert batched[1] == exits > 300

