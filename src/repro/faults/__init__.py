"""repro.faults — deterministic fault injection and hardening.

The subsystem has two parts (see docs/faults.md):

* :mod:`repro.faults.plan` / :mod:`repro.faults.injector` — declarative,
  seed-reproducible fault plans and the injector that turns them into
  hook installs and scheduled events on one machine
  (:func:`build_faulted_stack` builds a stack with one attached);
* hypervisor *hardening* living in the subsystems themselves (bounded
  migration retries, virtio notification-timeout requeues,
  malformed-descriptor drops, DMA aborts, DVH capability fallback), all
  counted in :class:`repro.metrics.Metrics`.

:mod:`repro.faults.workload` is the op soup a faulted machine runs.
Running one — a ``faults plan`` run or one episode of a ``faults fuzz``
campaign — is a machine :class:`~repro.scenarios.ScenarioSpec` driven by
:mod:`repro.scenarios.runner`.
"""

from repro.faults.chains import ChainTracker
from repro.faults.injector import FaultInjector, build_faulted_stack, degrade_config
from repro.faults.plan import FaultClass, FaultPlan, FaultSpec
from repro.faults.report import render_campaign, render_plan_run
from repro.faults.workload import run_fault_workload

__all__ = [
    "ChainTracker",
    "FaultClass",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "build_faulted_stack",
    "degrade_config",
    "run_fault_workload",
    "render_campaign",
    "render_plan_run",
]
