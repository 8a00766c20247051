"""repro.scenarios — the constrained-random scenario generator.

One seeded draw engine produces fully-resolved, JSON-canonical
:class:`ScenarioSpec` values covering both stimulus topologies the repo
exercises (single faulted machine, multi-host cluster) across every
modeled architecture (x86/VMX, ARM/VHE, RISC-V H-extension).  The
``repro audit`` matrix and the cluster sweep feed from this one
generator, and a ``faults fuzz`` campaign is :func:`fuzz_specs` output;
``python -m repro scenarios gen|run|shrink`` is the direct CLI.

:mod:`repro.scenarios.runner` is the only code that runs a faulted
machine: ``scenarios run``, ``faults plan``, ``faults fuzz`` and the
audit's spec families all go through :func:`run_machine`, check
:func:`repro.audit.check_invariants` and take one :func:`state_digest`.
Any failing spec — a fuzz finding included — shrinks with
:func:`shrink_scenario`.

Replay contract: ``generate_specs(seed=N)`` is byte-identical across
runs and machines, and ``run_scenarios`` results depend only on the
spec bytes — not on ``--jobs``, not on fast-forward mode.
"""

from repro.scenarios.generator import (
    ARCH_POOL,
    CLUSTER_FAULT_CLASSES,
    MACHINE_FAULT_CLASSES,
    TENANT_MIX,
    draw_grants,
    draw_scenario,
    draw_stack_shape,
    fuzz_specs,
    generate_specs,
    mixed_tenant_draws,
    mixed_tenant_specs,
    scenario_seed,
)
from repro.scenarios.runner import (
    run_machine,
    run_scenario,
    run_scenarios,
    scenario_cell,
    state_digest,
)
from repro.scenarios.shrink import (
    default_fails,
    shrink_candidates,
    shrink_scenario,
)
from repro.scenarios.spec import DVH_NAMES, ScenarioSpec, TenantDraw, dvh_name

__all__ = [
    "ARCH_POOL",
    "CLUSTER_FAULT_CLASSES",
    "DVH_NAMES",
    "MACHINE_FAULT_CLASSES",
    "TENANT_MIX",
    "ScenarioSpec",
    "TenantDraw",
    "default_fails",
    "draw_grants",
    "draw_scenario",
    "draw_stack_shape",
    "dvh_name",
    "fuzz_specs",
    "generate_specs",
    "mixed_tenant_draws",
    "mixed_tenant_specs",
    "run_machine",
    "run_scenario",
    "run_scenarios",
    "scenario_cell",
    "scenario_seed",
    "shrink_candidates",
    "shrink_scenario",
    "state_digest",
]
