"""The constrained-random scenario generator.

ONE seeded :class:`random.Random` per scenario drives every draw —
topology, architecture, stack shape, tenant mix, feature grants, fault
schedule, workload size — at *build* time; the resulting
:class:`~repro.scenarios.spec.ScenarioSpec` is fully resolved, so
running it consumes no generator randomness and the same seed always
yields byte-identical specs (and, through the runner, byte-identical
run digests).

This module is the single source of stimulus shapes.  A ``faults fuzz``
campaign is :func:`fuzz_specs` output, the canonical cluster tenant
fleet is :func:`mixed_tenant_draws`, and the ``repro audit`` matrix runs
:func:`generate_specs` and :func:`fuzz_specs` output.

Constraint validation is *reused*, never duplicated: every generated
spec passes through ``StackConfig.validate`` / ``GrantSet.validate`` /
``TenantSpec.__post_init__`` (via :meth:`ScenarioSpec.validate`) before
it is returned, so the generator can only emit combinations the
builders themselves accept — e.g. Xen never lands on a RISC-V host, and
``vp`` I/O never appears without nesting plus the virtual-passthrough
feature.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.core.features import DvhFeatures
from repro.faults.plan import FaultClass
from repro.hv.stack import StackConfig
from repro.ooh.grants import GrantSet
from repro.scenarios.spec import ScenarioSpec, TenantDraw, dvh_name

__all__ = [
    "ARCH_POOL",
    "CLUSTER_FAULT_CLASSES",
    "MACHINE_FAULT_CLASSES",
    "TENANT_MIX",
    "draw_grants",
    "draw_scenario",
    "draw_stack_shape",
    "fuzz_specs",
    "generate_specs",
    "mixed_tenant_draws",
    "scenario_seed",
]

#: Architectures a scenario may land on (§3: DVH is platform-agnostic;
#: this repo models x86 VMX, ARM VHE and the RISC-V H-extension).
ARCH_POOL: Tuple[str, ...] = ("x86", "arm", "riscv")

#: Fault classes a machine-topology scenario draws from — hook/point
#: faults plus capability and grant revocations (migration-wire classes
#: belong to the migration experiments).  A fuzz episode's plan and a
#: default ``faults plan`` run draw from all of them, in this order.
MACHINE_FAULT_CLASSES: Tuple[str, ...] = (
    FaultClass.NIC_DROP,
    FaultClass.NIC_CORRUPT,
    FaultClass.VIRTIO_MALFORMED,
    FaultClass.VIRTIO_KICK_DROP,
    FaultClass.IRQ_DROP,
    FaultClass.IRQ_SPURIOUS,
    FaultClass.IOMMU_FAULT,
    FaultClass.DVH_CAP_FAULT,
    FaultClass.OOH_GRANT_REVOKE,
)

#: Fault classes a cluster-topology scenario may aim at its fabric.
#: (Partitions and host loss need host-name mechanisms to be meaningful;
#: the audit matrix exercises those explicitly.)
CLUSTER_FAULT_CLASSES: Tuple[str, ...] = ("fabric_degrade",)

#: Tenant I/O-model mix for generated fleets: mostly paravirtual, a DVH
#: virtual-passthrough nested VM and a hardware-coupled straggler.
TENANT_MIX: Tuple[str, ...] = ("virtio", "vp", "virtio", "passthrough")


def scenario_seed(campaign_seed: int, index: int) -> int:
    """Per-scenario seed: campaigns never collide across adjacent
    campaign seeds (frozen: every pinned campaign digest derives from
    it)."""
    return campaign_seed * 1_000_003 + index


# ----------------------------------------------------------------------
# Stack-shape draws (the rng consumption order here is frozen: changing
# it would re-shape every pinned fuzz campaign).
# ----------------------------------------------------------------------
def draw_stack_shape(
    rng: random.Random,
    levels_pool: Sequence[int] = (0, 1, 2, 3),
    workers: int = 2,
):
    """Draw one stack configuration: depth, DVH feature set, I/O model
    and OoH grants.  Returns a ready-to-build ``StackConfig``."""
    levels = rng.choice(tuple(levels_pool))
    if levels == 0:
        return StackConfig(levels=0, workers=workers)
    dvh = rng.choice(
        (DvhFeatures.none(), DvhFeatures.vp_only(), DvhFeatures.full())
    )
    io_choices = ["virtio"]
    if levels >= 1:
        io_choices.append("passthrough")
    if levels >= 2 and dvh.virtual_passthrough:
        io_choices.append("vp")
    io_model = rng.choice(io_choices)
    ooh = draw_grants(rng, levels, io_model, dvh)
    return StackConfig(
        levels=levels, io_model=io_model, dvh=dvh, workers=workers, ooh=ooh
    )


def draw_grants(
    rng: random.Random, levels: int, io_model: str, dvh
) -> Optional[object]:
    """Draw an OoH grant set consistent with the stack shape — only
    features the DVH config doesn't already provide, and never the
    dirty-tracking grants on a hardware-coupled (passthrough) stack."""
    if levels < 2 or rng.random() < 0.5:
        return None
    pool: List[str] = []
    if io_model != "passthrough":
        pool.append(rng.choice(("dirty_logging", "dirty_ring")))
    if not dvh.virtual_timer:
        pool.append("timer_deadline")
    if not dvh.virtual_ipi:
        pool.append("posted_interrupts")
    chosen = [feature for feature in pool if rng.random() < 0.6]
    return GrantSet.from_names(chosen) if chosen else None


# ----------------------------------------------------------------------
# Tenant-mix draws
# ----------------------------------------------------------------------
def mixed_tenant_draws(
    count: int, prefix: str = "t", rotate: int = 0
) -> Tuple[TenantDraw, ...]:
    """A deterministic mixed-I/O tenant fleet.  ``rotate`` shifts which
    I/O model tenant 0 gets (the generator draws it; the canonical
    fleet keeps ``rotate=0``)."""
    return tuple(
        TenantDraw(
            name=f"{prefix}{i}",
            io_model=TENANT_MIX[(i + rotate) % len(TENANT_MIX)],
            memory_gb=8 + 4 * (i % 3),
            load=800 + 350 * (i % 5),
            dirty_pages=32 + 16 * (i % 3),
        )
        for i in range(count)
    )


# ----------------------------------------------------------------------
# Whole-scenario draws
# ----------------------------------------------------------------------
def _machine_spec(seed: int, config, **fields) -> ScenarioSpec:
    """A machine spec carrying a drawn stack shape, after the builder's
    coercions (e.g. levels=0 -> native I/O)."""
    config.validate()
    return ScenarioSpec(
        seed=seed,
        topology="machine",
        levels=config.levels,
        io_model=config.io_model,
        dvh=dvh_name(config.dvh),
        workers=config.workers,
        grants=config.ooh.names() if config.ooh is not None else (),
        **fields,
    )


def _draw_machine(
    rng: random.Random,
    seed: int,
    arch: str,
    guest_hv: str,
    levels_pool: Sequence[int],
    workers: int,
) -> ScenarioSpec:
    config = draw_stack_shape(rng, levels_pool, workers)
    if rng.random() < 0.2:
        fault_classes: Tuple[str, ...] = ()  # a clean-run scenario
    else:
        fault_classes = tuple(
            rng.sample(
                sorted(MACHINE_FAULT_CLASSES),
                rng.randint(1, 4),
            )
        )
    return _machine_spec(
        seed,
        config,
        arch=arch,
        guest_hv=(
            guest_hv if config.levels >= 2 else "kvm" if arch != "riscv" else "hs"
        ),
        ops_per_worker=rng.choice((10, 20, 40)),
        fault_classes=fault_classes,
        fault_seed=rng.randrange(1 << 30),
        intensity=0.08,
    )


def _draw_cluster(
    rng: random.Random, seed: int, arch: str, guest_hv: str
) -> ScenarioSpec:
    hosts = rng.choice((2, 3, 4))
    policy = rng.choice(("bin-pack", "spread", "load-balance"))
    count = rng.randint(2, 6)
    rotate = rng.randrange(len(TENANT_MIX))
    if rng.random() < 0.5:
        fault_classes: Tuple[str, ...] = CLUSTER_FAULT_CLASSES
    else:
        fault_classes = ()
    return ScenarioSpec(
        seed=seed,
        topology="cluster",
        arch=arch,
        guest_hv=guest_hv,
        levels=2,
        workers=2,
        fault_classes=fault_classes,
        fault_seed=rng.randrange(1 << 30),
        hosts=hosts,
        policy=policy,
        tenants=mixed_tenant_draws(count, rotate=rotate),
    )


def draw_scenario(
    seed: int,
    arches: Sequence[str] = ARCH_POOL,
    levels_pool: Sequence[int] = (0, 1, 2, 3),
    workers: int = 2,
    cluster_fraction: float = 0.25,
) -> ScenarioSpec:
    """Draw ONE fully-resolved scenario from one seeded Random.

    Draw order (frozen for seed stability): arch -> guest hypervisor ->
    topology -> topology-specific shape -> fault schedule -> workload.
    """
    rng = random.Random(seed)
    arch = rng.choice(tuple(arches))
    # Constraint: the H-extension profile is RISC-V's only modeled guest
    # hypervisor; Xen/KVM profiles are x86/ARM (StackConfig.validate
    # would reject anything else — we draw only what it accepts).
    guest_hv = "hs" if arch == "riscv" else rng.choice(("kvm", "xen"))
    if rng.random() < cluster_fraction:
        spec = _draw_cluster(rng, seed, arch, guest_hv)
    else:
        spec = _draw_machine(rng, seed, arch, guest_hv, levels_pool, workers)
    return spec.validate()


def generate_specs(
    seed: int = 0,
    count: int = 10,
    arches: Sequence[str] = ARCH_POOL,
    levels_pool: Sequence[int] = (0, 1, 2, 3),
    workers: int = 2,
    cluster_fraction: float = 0.25,
) -> List[ScenarioSpec]:
    """``count`` scenarios for one campaign seed — the generator behind
    ``python -m repro scenarios gen``."""
    return [
        draw_scenario(
            scenario_seed(seed, index),
            arches=arches,
            levels_pool=levels_pool,
            workers=workers,
            cluster_fraction=cluster_fraction,
        )
        for index in range(count)
    ]


def fuzz_specs(
    seed: int = 0,
    count: int = 50,
    levels_pool: Sequence[int] = (0, 1, 2, 3),
    ops_per_worker: int = 20,
    intensity: float = 0.08,
) -> List[ScenarioSpec]:
    """``count`` fuzz episodes for one campaign seed — the stimulus of
    ``python -m repro faults fuzz`` and of ``repro audit``'s fuzz leg.

    Each episode is a machine spec on x86/KVM with two workers whose
    fault plan draws from every :data:`MACHINE_FAULT_CLASSES` class.
    Draw order (frozen: the pinned campaign digests depend on it):
    stack shape, then the plan's seed.
    """
    specs = []
    for index in range(count):
        spec_seed = scenario_seed(seed, index)
        rng = random.Random(spec_seed)
        config = draw_stack_shape(rng, levels_pool, 2)
        specs.append(
            _machine_spec(
                spec_seed,
                config,
                ops_per_worker=ops_per_worker,
                fault_classes=MACHINE_FAULT_CLASSES,
                fault_seed=rng.randrange(1 << 30),
                intensity=intensity,
            ).validate()
        )
    return specs
