"""The head-to-head study harness: baseline vs DVH vs OoH vs DVH+OoH.

DVH (the paper) gives nested VMs *virtual hardware* that L0 emulates
directly; OoH (the grant layer in :mod:`repro.ooh`) instead hands
selected *real* hardware virtualization features to the L1 guest
hypervisor.  The two attack the same exit-multiplication problem from
opposite ends, and they compose.  This module runs the same seeds
through a 4-variant configuration matrix:

===========  ==========================================================
baseline     virtio I/O, no DVH, the OoH layer installed but empty
             (every feature forwarded) — the paper's nested baseline.
dvh          DVH full (virtual timer/IPI/idle + virtual-passthrough
             I/O); no OoH grants, so dirty tracking stays forwarded.
ooh          no DVH; OoH full grants (dirty_ring + posted_interrupts +
             timer_deadline) to the L1 guest hypervisor.
dvh+ooh      DVH full for the I/O and timer/IPI paths, plus the one OoH
             grant that composes with it: dirty_logging (the timer and
             posted-interrupt grants would collide with the DVH virtual
             timer/IPI ownership claims — rejected at build time).
===========  ==========================================================

across four scenario families — Table-3 micro-ops (KVM and Xen guest
hypervisors), Figure-7/8-style app workloads, a single-machine nested
live migration with an active dirtier, and a cross-host cluster
migration with per-tenant dirty-log grants.

Every cell is a pure function of its plain-tuple task (module-level
workers, so ``--jobs`` fans them over processes), results are assembled
in task order, and the study digest is a sha256 over the canonical JSON
of the rows: serial vs ``--jobs N`` and fast-forward on vs off are
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.bench.parallel import map_cells
from repro.core.features import DvhFeatures
from repro.dc.spec import (
    BOOL, COUNT, POS_INT, POSITIVE, STRING, list_of, load_document, section,
    spec_field,
)
from repro.hv.stack import StackConfig
from repro.ooh.grants import GrantSet

__all__ = [
    "VARIANTS",
    "StudySpec",
    "StudyResult",
    "variant_config",
    "study_tasks",
    "study_cell",
    "run_study",
]

#: The four head-to-head variants, in report order.
VARIANTS: Tuple[str, ...] = ("baseline", "dvh", "ooh", "dvh+ooh")

#: Per-tenant OoH grants each variant asks for in the cluster scenario.
CLUSTER_GRANTS: Dict[str, Tuple[str, ...]] = {
    "baseline": (),
    "dvh": (),
    "ooh": ("dirty_ring",),
    "dvh+ooh": ("dirty_logging",),
}


def variant_config(
    variant: str, guest_hv: str = "kvm", levels: int = 2
) -> StackConfig:
    """The stack configuration one study variant runs on.

    Every variant installs the OoH layer (``ooh`` non-None) so dirty
    tracking is priced on all of them — forwarded where no grant is
    active, granted otherwise.  That keeps the migration comparison
    apples-to-apples: a variant without the layer would charge nothing.
    """
    if variant == "baseline":
        return StackConfig(
            levels=levels, io_model="virtio", guest_hv=guest_hv,
            ooh=GrantSet.none(),
        )
    if variant == "dvh":
        return StackConfig(
            levels=levels, io_model="vp", dvh=DvhFeatures.full(),
            guest_hv=guest_hv, ooh=GrantSet.none(),
        )
    if variant == "ooh":
        return StackConfig(
            levels=levels, io_model="virtio", guest_hv=guest_hv,
            ooh=GrantSet.full(),
        )
    if variant == "dvh+ooh":
        return StackConfig(
            levels=levels, io_model="vp", dvh=DvhFeatures.full(),
            guest_hv=guest_hv, ooh=GrantSet.migration(),
        )
    raise ValueError(f"unknown study variant {variant!r}; choose from {VARIANTS}")


# ----------------------------------------------------------------------
# Spec: what the matrix covers (JSON-loadable, see examples/)
# ----------------------------------------------------------------------
_NAMES = list_of(STRING)


@dataclass(frozen=True)
class StudySpec:
    """The study matrix, as data.  The defaults are the full 4-scenario
    head-to-head; a JSON spec file (``--spec``) can trim or reshape it."""

    name: str = spec_field(STRING, "default")
    variants: Tuple[str, ...] = spec_field(_NAMES, VARIANTS)
    micro_benches: Tuple[str, ...] = spec_field(
        _NAMES, ("Hypercall", "DevNotify", "ProgramTimer", "SendIPI")
    )
    micro_guest_hvs: Tuple[str, ...] = spec_field(_NAMES, ("kvm", "xen"))
    micro_iterations: int = spec_field(POS_INT, 20)
    app_names: Tuple[str, ...] = spec_field(_NAMES, ("hackbench", "netperf_rr"))
    app_scale: float = spec_field(POSITIVE, 0.1)
    #: Single-machine nested live migration with an active dirtier.
    migration: bool = spec_field(BOOL, True)
    #: Cross-host cluster migration host count (0 disables the family).
    cluster_hosts: int = spec_field(COUNT, 2)

    def __post_init__(self) -> None:
        for variant in self.variants:
            if variant not in VARIANTS:
                raise ValueError(
                    f"unknown study variant {variant!r}; choose from {VARIANTS}"
                )
        from repro.workloads.microbench import MICROBENCHMARKS

        for bench in self.micro_benches:
            if bench not in MICROBENCHMARKS:
                raise ValueError(f"unknown microbenchmark {bench!r}")
        for hv in self.micro_guest_hvs:
            if hv not in ("kvm", "xen"):
                raise ValueError(f"guest_hv must be kvm or xen, got {hv!r}")
        from repro.workloads.apps import app_names

        for app in self.app_names:
            if app not in app_names():
                raise ValueError(f"unknown app {app!r}; choose from {app_names()}")
        if self.cluster_hosts < 0 or self.cluster_hosts == 1:
            # A migration needs a second host to land on.
            raise ValueError(
                f"cluster_hosts must be 0 (off) or >= 2, got {self.cluster_hosts}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "StudySpec":
        """Check parsed JSON with the datacenter specs' field-table
        validator; raises ``SpecError``."""
        return section(cls)(data, "study")

    @classmethod
    def from_file(cls, path: str) -> "StudySpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(load_document(fh.read()))


@dataclass
class StudyResult:
    """Everything one study run produced, in deterministic task order."""

    spec_name: str
    seed: int
    rows: List[dict] = field(default_factory=list)
    digest: str = ""

    def by_scenario(self, scenario: str) -> List[dict]:
        return [r for r in self.rows if r["scenario"] == scenario]

    def to_json(self) -> dict:
        return {
            "spec": self.spec_name,
            "seed": self.seed,
            "digest": self.digest,
            "rows": self.rows,
        }


# ----------------------------------------------------------------------
# Task generation (plain tuples: picklable, order = report order)
# ----------------------------------------------------------------------
def study_tasks(spec: StudySpec, seed: int) -> List[tuple]:
    tasks: List[tuple] = []
    for guest_hv in spec.micro_guest_hvs:
        for bench in spec.micro_benches:
            for variant in spec.variants:
                tasks.append(
                    ("micro", variant, guest_hv, bench,
                     spec.micro_iterations, seed)
                )
    for app in spec.app_names:
        for variant in spec.variants:
            tasks.append(("app", variant, app, spec.app_scale, seed))
    if spec.migration:
        for variant in spec.variants:
            tasks.append(("migration", variant, seed))
    if spec.cluster_hosts:
        for variant in spec.variants:
            tasks.append(("cluster", variant, spec.cluster_hosts, seed))
    return tasks


# ----------------------------------------------------------------------
# Cell workers (module-level so they pickle under spawn)
# ----------------------------------------------------------------------
def study_cell(task: tuple) -> dict:
    """Run one study cell; returns a plain JSON-serializable row."""
    kind = task[0]
    if kind == "micro":
        return _micro_cell(*task[1:])
    if kind == "app":
        return _app_cell(*task[1:])
    if kind == "migration":
        return _migration_cell(*task[1:])
    if kind == "cluster":
        return _cluster_cell(*task[1:])
    raise ValueError(f"unknown study task kind {kind!r}")


def _micro_cell(variant, guest_hv, bench, iterations, seed) -> dict:
    from repro.hv.stack import build_stack
    from repro.workloads.microbench import run_microbenchmark

    config = replace(variant_config(variant, guest_hv=guest_hv), seed=seed)
    stack = build_stack(config)
    cycles = run_microbenchmark(stack, bench, iterations)
    granted, forwarded = stack.metrics.ooh_split()
    return {
        "scenario": "micro",
        "variant": variant,
        "guest_hv": guest_hv,
        "bench": bench,
        "cycles": cycles,
        "ooh_granted": granted,
        "ooh_forwarded": forwarded,
    }


def _app_cell(variant, app, scale, seed) -> dict:
    from repro.hv.stack import build_stack
    from repro.workloads.apps import run_app

    config = replace(variant_config(variant), seed=seed)
    stack = build_stack(config)
    result = run_app(stack, app, scale=scale)
    granted, forwarded = stack.metrics.ooh_split()
    return {
        "scenario": "app",
        "variant": variant,
        "app": app,
        "value": result.value,
        "unit": result.unit,
        "higher_is_better": result.higher_is_better,
        "elapsed_s": result.elapsed_s,
        "txns": result.txns,
        "ooh_granted": granted,
        "ooh_forwarded": forwarded,
    }


#: Pages the migration-scenario dirtier re-touches per burst, and the
#: compute cycles between bursts — calibrated so pre-copy still
#: converges but drains a meaningful dirty stream every round.
_DIRTIER_PAGES = 64
_DIRTIER_COMPUTE = 200_000
_DIRTIER_SPAN = 1_024


def _migration_cell(variant, seed) -> dict:
    from repro.core.migration import LiveMigration, dirtier
    from repro.hv.stack import build_stack

    config = replace(variant_config(variant), seed=seed)
    stack = build_stack(config)
    stack.settle()
    devices = [stack.net.device] if config.io_model == "vp" else []
    mig = LiveMigration(stack.machine, stack.leaf_vm, devices=devices)
    proc = stack.sim.spawn(mig.run(), f"study-mig-{variant}")
    # A tenant workload that keeps re-dirtying a sliding window of
    # pages while the migration runs (feeds the pre-copy dirty logs).
    stack.sim.spawn(
        dirtier(
            stack.machine, stack.ctx(0), proc, base=0x2000_0000,
            pages=_DIRTIER_PAGES, span=_DIRTIER_SPAN, compute=_DIRTIER_COMPUTE,
        ),
        "study-dirtier",
    )
    stack.sim.run()
    res = proc.result
    metrics = stack.metrics
    granted, forwarded = metrics.ooh_split()
    return {
        "scenario": "migration",
        "variant": variant,
        "total_s": res.total_s,
        "downtime_s": res.downtime_s,
        "rounds": res.rounds,
        "bytes_transferred": res.bytes_transferred,
        "dirty_tracking_cycles": metrics.cycles.get("dirty_tracking", 0),
        "pages_granted": granted,
        "pages_forwarded": forwarded,
        "dirty_mode": stack.machine.ooh.dirty_mode() or "forwarded",
    }


def _cluster_cell(variant, hosts, seed) -> dict:
    from repro.cluster import Cluster, TenantSpec
    from repro.ooh.grants import GrantTable

    grants = CLUSTER_GRANTS[variant]
    cluster = Cluster(num_hosts=hosts, seed=seed, policy="spread")
    # Install the (possibly empty) grant layer on every host so dirty
    # tracking is priced under all variants — forwarded where no grant
    # lands, granted where the tenant's spec asks for one.
    for host in cluster.hosts:
        host.ensure_booted()
        if host.machine.ooh is None:
            host.machine.ooh = GrantTable(GrantSet.none(), host.machine.metrics)
    cluster.place(
        TenantSpec(name="t0", io_model="vp", memory_gb=8, grants=grants)
    )
    src = cluster.host_of("t0")
    dst = next(h for h in cluster.hosts if h.name != src.name)
    record = cluster.migrate("t0", dst.name)
    res = record.result
    tracking = 0
    granted = forwarded = 0
    for host in cluster.hosts:
        if host.machine is None:
            continue
        tracking += host.machine.metrics.cycles.get("dirty_tracking", 0)
        g, f = host.machine.metrics.ooh_split()
        granted += g
        forwarded += f
    return {
        "scenario": "cluster",
        "variant": variant,
        "outcome": record.outcome,
        "downtime_s": res.downtime_s,
        "rounds": res.rounds,
        "bytes_transferred": res.bytes_transferred,
        "fabric_migration_bytes": cluster.fabric.metrics.cross_host_bytes(
            "migration"
        ),
        "dirty_tracking_cycles": tracking,
        "pages_granted": granted,
        "pages_forwarded": forwarded,
        "grants": list(grants),
    }


# ----------------------------------------------------------------------
def _digest(rows: List[dict]) -> str:
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_study(
    spec: Optional[StudySpec] = None,
    seed: int = 0,
    jobs: int = 1,
) -> StudyResult:
    """Run the whole matrix.  ``jobs`` fans cells over worker processes
    (0 = one per CPU).  The result — including its digest — is
    byte-identical across jobs counts and with fast-forward on or off."""
    spec = spec if spec is not None else StudySpec()
    tasks = study_tasks(spec, seed)
    rows = map_cells(study_cell, tasks, jobs)
    return StudyResult(
        spec_name=spec.name, seed=seed, rows=rows, digest=_digest(rows)
    )
