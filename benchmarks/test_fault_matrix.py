"""Fault-injection matrix: every fault class against the key stacks.

Sweeps the op-soup fault classes across {L2, L2+DVH, L3} and the
migration-wire classes across the same stacks' live migrations.  Every
cell must complete with the per-episode invariants green (the hardening
under test: faults degrade performance, never correctness), and the
recovery paths — virtio requeue, DMA abort, DVH fallback, migration
retry — must actually fire somewhere in the matrix.
"""

from repro.audit import check_invariants
from repro.core.features import DvhFeatures
from repro.core.migration import LiveMigration
from repro.faults import (
    FaultClass,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    build_faulted_stack,
    run_fault_workload,
)
from repro.hv.stack import StackConfig, build_stack

SEED = 7

STACKS = [
    ("L2", lambda: StackConfig(levels=2, io_model="virtio", workers=2)),
    (
        "L2+DVH",
        lambda: StackConfig(
            levels=2, io_model="vp", dvh=DvhFeatures.full(), workers=2
        ),
    ),
    ("L3", lambda: StackConfig(levels=3, io_model="virtio", workers=2)),
]

#: One aggressive deterministic spec per op-soup fault class.
WORKLOAD_SPECS = [
    FaultSpec(kind=FaultClass.NIC_DROP, rate=0.10),
    FaultSpec(kind=FaultClass.NIC_CORRUPT, rate=0.10),
    FaultSpec(kind=FaultClass.VIRTIO_MALFORMED, count=4, end=16_000_000),
    FaultSpec(kind=FaultClass.VIRTIO_KICK_DROP, rate=0.25),
    FaultSpec(kind=FaultClass.IRQ_DROP, rate=0.10),
    FaultSpec(kind=FaultClass.IRQ_SPURIOUS, count=4, end=16_000_000),
    FaultSpec(kind=FaultClass.IOMMU_FAULT, rate=0.05),
    FaultSpec(
        kind=FaultClass.DVH_CAP_FAULT, mechanisms=("virtual_passthrough",)
    ),
]

MIGRATION_SPECS = [
    ("mig_bandwidth", lambda now: FaultSpec(kind=FaultClass.MIG_BANDWIDTH, param=0.5)),
    (
        "mig_link_flap",
        lambda now: FaultSpec(
            kind=FaultClass.MIG_LINK_FLAP, start=now, end=now + 700_000
        ),
    ),
    ("mig_loss", lambda now: FaultSpec(kind=FaultClass.MIG_LOSS, param=0.10)),
]


def _render_matrix(title, columns, rows):
    width = max(len(name) for name, _cells in rows) + 2
    cwidth = max(max(len(c) for c in columns), 16) + 2
    lines = [title, f"{'fault class':<{width}}" + "".join(f"{c:>{cwidth}}" for c in columns)]
    for name, cells in rows:
        lines.append(f"{name:<{width}}" + "".join(f"{c:>{cwidth}}" for c in cells))
    return "\n".join(lines)


def _sweep_workload():
    rows = []
    for spec in WORKLOAD_SPECS:
        cells = []
        for stack_name, factory in STACKS:
            plan = FaultPlan([spec])
            stack, injector = build_faulted_stack(factory(), plan, seed=SEED)
            ops = run_fault_workload(stack, ops_per_worker=25, seed=SEED)
            violations = check_invariants(stack)
            assert not violations, (
                f"{spec.kind} x {stack_name}: {violations}"
            )
            assert sum(ops.values()) > 0
            injected = sum(injector.summary().values()) + stack.metrics.faults.get(
                FaultClass.DVH_CAP_FAULT, 0
            )
            recovered = stack.metrics.total_recoveries()
            cells.append(f"{injected} inj / {recovered} rec")
        rows.append((spec.kind, cells))
    return rows


def _sweep_migration():
    rows = []
    for spec_name, make_spec in MIGRATION_SPECS:
        cells = []
        for stack_name, factory in STACKS:
            stack = build_stack(factory())
            stack.settle()
            plan = FaultPlan([make_spec(stack.sim.now)])
            injector = FaultInjector(stack.machine, plan, seed=SEED).attach(stack)
            devices = (
                [stack.net.device] if stack.config.io_model == "vp" else []
            )
            mig = LiveMigration(stack.machine, stack.leaf_vm, devices=devices)
            res = stack.sim.run_process(mig.run(), f"migrate-{spec_name}")
            assert res.total_s > 0
            injected = sum(injector.summary().values())
            cells.append(f"{injected} inj / {res.retries} retries")
            if spec_name == "mig_link_flap":
                assert res.retries > 0, f"{stack_name}: flap never retried"
                assert stack.metrics.recoveries.get("migration_retry", 0) > 0
        rows.append((spec_name, cells))
    return rows


def test_fault_matrix(benchmark, save_result):
    workload_rows, migration_rows = benchmark.pedantic(
        lambda: (_sweep_workload(), _sweep_migration()), rounds=1, iterations=1
    )
    columns = [name for name, _f in STACKS]
    text = "\n\n".join(
        [
            _render_matrix(
                "Fault matrix: op-soup classes (invariants green in every cell)",
                columns,
                workload_rows,
            ),
            _render_matrix(
                "Fault matrix: migration-wire classes", columns, migration_rows
            ),
        ]
    )
    save_result("fault_matrix", text)

    # The matrix must exercise the rate-based classes somewhere.
    def total_injected(rows, kind):
        return sum(
            int(cell.split()[0]) for name, cells in rows if name == kind for cell in cells
        )

    for kind in (FaultClass.NIC_DROP, FaultClass.IRQ_DROP, FaultClass.IRQ_SPURIOUS):
        assert total_injected(workload_rows, kind) > 0, f"{kind} never fired"
