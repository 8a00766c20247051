"""Declarative datacenter specifications — the environment in a file.

A :class:`DCSpec` describes an entire ``repro.dc`` scenario: the
spine-leaf topology (racks, hosts per rack, spines, oversubscription),
the host platform, the tenant mix and arrival schedule, background
traffic, the control-plane program (admission policy, rebalancing
thresholds, rolling-upgrade waves), and a fault schedule.  Together
with a seed it determines a run byte for byte — the lago-style
"environment in a file" idea from the ROADMAP.

Specs are JSON documents, read by :func:`load_document` (duplicate
keys are an error) and checked by one field-table validator: every
field of a spec dataclass is declared with :func:`spec_field`, which
holds its default and its one checker, and :func:`section` builds the
dataclass from a JSON object.  The study harness
(:class:`repro.study.StudySpec`) reads its spec files the same way.

The format is versioned (``"version": 1``); unknown versions, unknown
keys and values of the wrong type are hard errors so a typo fails
loudly instead of silently running a different experiment.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.cluster.host import TENANT_PASSTHROUGH, TENANT_VIRTIO, TENANT_VP
from repro.cluster.placement import POLICIES
from repro.faults.plan import FaultClass, FaultPlan, FaultSpec
from repro.hv.stack import StackConfig

__all__ = [
    "SpecError",
    "load_document",
    "spec_field",
    "section",
    "TopologySpec",
    "HostSpec",
    "TenantMixSpec",
    "TrafficSpec",
    "RebalanceSpec",
    "UpgradeSpec",
    "ControlSpec",
    "SloSpec",
    "FaultWindowSpec",
    "DCSpec",
]

#: The spec format version this build understands.
SPEC_VERSION = 1


class SpecError(ValueError):
    """A topology/tenant spec is malformed."""


# ======================================================================
# One loader, one field-table validator
# ======================================================================
#: A checker takes a raw value and its dotted path; it returns the
#: normalized value or raises SpecError.
Check = Callable[[Any, str], Any]


def _unique_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise SpecError(f"duplicate key {key!r}")
        out[key] = value
    return out


def _no_constant(name: str) -> Any:
    raise SpecError(f"{name} is not a JSON number")


def load_document(text: str) -> Dict[str, Any]:
    """Parse a JSON spec document: a top-level object, no duplicate
    keys, no ``NaN``/``Infinity``."""
    try:
        data = json.loads(
            text, object_pairs_hook=_unique_keys, parse_constant=_no_constant
        )
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SpecError(
            f"a spec document must be a JSON object, got {type(data).__name__}"
        )
    return data


def _scalar(types: Tuple[type, ...], desc: str, ok=lambda x: True) -> Check:
    """A JSON scalar of exactly one of ``types`` (so ``true`` is not the
    integer 1) that satisfies ``ok``; numbers come back as floats."""

    def check(value, ctx):
        if type(value) not in types or not ok(value):
            raise SpecError(f"{ctx} must be {desc}, got {value!r}")
        return float(value) if float in types else value

    return check


POS_INT = _scalar((int,), "a positive integer", lambda x: x >= 1)
COUNT = _scalar((int,), "a non-negative integer", lambda x: x >= 0)
NUMBER = _scalar((int, float), "a number")
NON_NEGATIVE = _scalar((int, float), "non-negative", lambda x: x >= 0)
POSITIVE = _scalar((int, float), "positive", lambda x: x > 0)
BOOL = _scalar((bool,), "true or false")
STRING = _scalar((str,), "a string")


def choice(options: Iterable[str], message: str) -> Check:
    """One of ``options``; ``message`` formats the rejected value."""
    allowed = sorted(options)

    def check(value, ctx):
        if value not in allowed:
            raise SpecError(
                f"{ctx}: {message.format(value)} (choose from {allowed})"
            )
        return value

    return check


def optional(item: Check) -> Check:
    """``null`` or whatever ``item`` accepts."""
    return lambda value, ctx: None if value is None else item(value, ctx)


def list_of(item: Check, nonempty: bool = False) -> Check:
    """A JSON list of ``item`` values, returned as a tuple."""

    def check(value, ctx):
        if not isinstance(value, list) or (nonempty and not value):
            what = "a non-empty list" if nonempty else "a list"
            raise SpecError(f"{ctx} must be {what}, got {value!r}")
        return tuple(item(v, f"{ctx}[{i}]") for i, v in enumerate(value))

    return check


def mapping(key: Check, item: Check) -> Check:
    """A JSON object with ``key``-checked keys and ``item`` values."""

    def check(value, ctx):
        if not isinstance(value, dict):
            raise SpecError(f"{ctx} must be a mapping, got {value!r}")
        return {key(k, ctx): item(v, f"{ctx}.{k}") for k, v in value.items()}

    return check


def spec_field(check: Check, default: Any = MISSING, factory: Any = MISSING) -> Any:
    """A dataclass field read from a spec document through ``check``."""
    return field(default=default, default_factory=factory, metadata={"check": check})


def section(cls: type) -> Check:
    """A JSON object built into the frozen dataclass ``cls``: each
    field's :func:`spec_field` checker, defaults from ``cls`` itself,
    unknown keys rejected (a typo must fail loudly instead of silently
    running a different experiment).  A ``ValueError`` from the
    constructor becomes a :class:`SpecError`."""
    checks = {f.name: f.metadata["check"] for f in fields(cls)}
    required = [
        f.name
        for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    ]

    def check(value, ctx):
        if not isinstance(value, dict):
            raise SpecError(f"{ctx}: expected a mapping, got {type(value).__name__}")
        unknown = sorted(value.keys() - checks.keys())
        if unknown:
            raise SpecError(
                f"{ctx}: unknown key {unknown[0]!r} (allowed: {sorted(checks)})"
            )
        missing = [key for key in required if key not in value]
        if missing:
            raise SpecError(f"{ctx}: missing key {missing[0]!r}")
        kwargs = {k: checks[k](v, f"{ctx}.{k}") for k, v in value.items()}
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise SpecError(f"{ctx}: {exc}") from None

    return check


# ======================================================================
# Spec dataclasses
# ======================================================================
_IO_MODEL = choice(
    (TENANT_VIRTIO, TENANT_VP, TENANT_PASSTHROUGH), "unknown io model {!r}"
)


@dataclass(frozen=True)
class TopologySpec:
    """The physical fabric: racks of hosts behind leaves, spines above."""

    racks: int = spec_field(POS_INT, 2)
    hosts_per_rack: int = spec_field(POS_INT, 2)
    spines: int = spec_field(POS_INT, 2)
    oversubscription: float = spec_field(POSITIVE, 4.0)


@dataclass(frozen=True)
class HostSpec:
    """The platform every host boots (when first touched)."""

    guest_hv: str = spec_field(STRING, "kvm")
    stack_levels: int = spec_field(POS_INT, 2)
    workers: int = spec_field(POS_INT, 2)
    #: Cycle-load admission ceiling; None = workers * LOAD_PER_WORKER.
    load_capacity: Optional[int] = spec_field(optional(POS_INT), None)


@dataclass(frozen=True)
class TenantMixSpec:
    """Tenant arrivals: how many, when, and what they look like.  The
    per-tenant io model / size / load are drawn from the control plane's
    seeded RNG, so a (spec, seed) pair fixes every arrival."""

    count: int = spec_field(COUNT, 8)
    start_ms: float = spec_field(NON_NEGATIVE, 0.5)
    interval_ms: float = spec_field(NON_NEGATIVE, 0.8)
    #: io model -> weight (virtio / vp / passthrough).
    mix: Dict[str, float] = spec_field(
        mapping(_IO_MODEL, NON_NEGATIVE),
        factory=lambda: {TENANT_VIRTIO: 2, TENANT_VP: 1, TENANT_PASSTHROUGH: 1},
    )
    memory_gb: Tuple[int, ...] = spec_field(list_of(POS_INT, nonempty=True), (1, 2))
    #: Inclusive [lo, hi] steady-state cycle-load range.
    load: Tuple[int, int] = spec_field(list_of(COUNT), (800, 2000))
    dirty_pages: Tuple[int, ...] = spec_field(list_of(COUNT, nonempty=True), (32, 64))


@dataclass(frozen=True)
class TrafficSpec:
    """Background east-west flows that contend with migration traffic."""

    flows: int = spec_field(COUNT, 0)
    chunk_kb: int = spec_field(POS_INT, 64)
    gap_ms: float = spec_field(NON_NEGATIVE, 0.3)


@dataclass(frozen=True)
class RebalanceSpec:
    """Threshold-triggered live-migration rebalancing."""

    enabled: bool = spec_field(BOOL, False)
    start_ms: float = spec_field(NON_NEGATIVE, 2.0)
    interval_ms: float = spec_field(NON_NEGATIVE, 2.0)
    #: Move a tenant when the hottest host exceeds threshold * mean load.
    threshold: float = spec_field(
        _scalar((int, float), "a number >= 1", lambda x: x >= 1), 1.6
    )


@dataclass(frozen=True)
class UpgradeSpec:
    """Rolling kernel-upgrade waves: evacuate, reboot, readmit."""

    enabled: bool = spec_field(BOOL, False)
    start_ms: float = spec_field(NON_NEGATIVE, 8.0)
    wave_size: int = spec_field(POS_INT, 4)
    reboot_ms: float = spec_field(NON_NEGATIVE, 2.0)
    downtime_limit_ms: float = spec_field(NON_NEGATIVE, 500.0)


@dataclass(frozen=True)
class ControlSpec:
    policy: str = spec_field(
        choice(POLICIES, "unknown placement policy {!r}"), "bin-pack"
    )
    rebalance: RebalanceSpec = spec_field(
        section(RebalanceSpec), factory=RebalanceSpec
    )
    upgrade: UpgradeSpec = spec_field(section(UpgradeSpec), factory=UpgradeSpec)


@dataclass(frozen=True)
class SloSpec:
    """Per-tenant tail-latency objectives and the gate that enforces
    them.  When enabled, the control plane samples every placed
    tenant's request latency each ``sample_ms`` (into the fabric's
    integer histogram tables, see :mod:`repro.cluster.telemetry`) and
    a periodic gate compares each tenant's windowed p99 against its
    objective, live-migrating the worst breacher off its host."""

    enabled: bool = spec_field(BOOL, False)
    #: Telemetry sampling period.
    sample_ms: float = spec_field(NON_NEGATIVE, 0.2)
    #: Default p99 objective (ms) for tenants without an override.
    objective_p99_ms: float = spec_field(NON_NEGATIVE, 0.1)
    #: Per-io-model objective overrides: {"virtio": 0.2, ...}.
    objectives: Dict[str, float] = spec_field(
        mapping(_IO_MODEL, POSITIVE), factory=dict
    )
    #: First gate evaluation; windows before it only warm the tables.
    gate_start_ms: float = spec_field(NON_NEGATIVE, 2.0)
    #: Gate cadence; each evaluation sees the samples of its window.
    gate_interval_ms: float = spec_field(NON_NEGATIVE, 1.0)
    #: Windows with fewer samples than this are never judged.
    min_samples: int = spec_field(POS_INT, 8)

    def objective_ms(self, io_model: str) -> float:
        return self.objectives.get(io_model, self.objective_p99_ms)


@dataclass(frozen=True)
class FaultWindowSpec:
    """One fabric fault window on the wall-clock (ms) schedule."""

    kind: str = spec_field(
        choice(FaultClass.FABRIC, "{!r} is not a fabric fault class")
    )
    start_ms: float = spec_field(NON_NEGATIVE, 0.0)
    end_ms: Optional[float] = spec_field(optional(NON_NEGATIVE), None)
    rate: float = spec_field(NUMBER, 0.0)
    count: int = spec_field(COUNT, 0)
    param: Optional[float] = spec_field(optional(NUMBER), None)
    targets: Tuple[str, ...] = spec_field(list_of(STRING), ())


@dataclass(frozen=True)
class DCSpec:
    """A complete datacenter scenario."""

    name: str = spec_field(STRING, "dc")
    version: int = spec_field(POS_INT, SPEC_VERSION)
    topology: TopologySpec = spec_field(section(TopologySpec), factory=TopologySpec)
    hosts: HostSpec = spec_field(section(HostSpec), factory=HostSpec)
    tenants: TenantMixSpec = spec_field(
        section(TenantMixSpec), factory=TenantMixSpec
    )
    traffic: TrafficSpec = spec_field(section(TrafficSpec), factory=TrafficSpec)
    control: ControlSpec = spec_field(section(ControlSpec), factory=ControlSpec)
    slo: SloSpec = spec_field(section(SloSpec), factory=SloSpec)
    faults: Tuple[FaultWindowSpec, ...] = spec_field(
        list_of(section(FaultWindowSpec)), ()
    )
    #: Open-loop processes (traffic, rebalance ticks) stop past this.
    horizon_ms: float = spec_field(POSITIVE, 30.0)

    # ------------------------------------------------------------------
    @classmethod
    def from_text(cls, text: str) -> "DCSpec":
        return cls.from_dict(load_document(text))

    @classmethod
    def load(cls, path: str) -> "DCSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DCSpec":
        spec = section(cls)(data, "spec")
        if spec.version != SPEC_VERSION:
            raise SpecError(
                f"unsupported spec version {spec.version!r} "
                f"(this build understands {SPEC_VERSION})"
            )
        tenants = spec.tenants
        if sum(tenants.mix.values()) <= 0:
            raise SpecError("spec.tenants.mix weights sum to zero")
        if len(tenants.load) != 2 or tenants.load[0] > tenants.load[1]:
            raise SpecError("spec.tenants.load must be [lo, hi] with 0 <= lo <= hi")
        rebalance = spec.control.rebalance
        if rebalance.enabled and rebalance.interval_ms <= 0:
            raise SpecError("spec.control.rebalance.interval_ms must be positive")
        if spec.slo.enabled:
            for key in ("sample_ms", "gate_interval_ms", "objective_p99_ms"):
                if getattr(spec.slo, key) <= 0:
                    raise SpecError(f"spec.slo.{key} must be positive when enabled")
        for i, f in enumerate(spec.faults):
            if f.end_ms is not None and f.end_ms <= f.start_ms:
                raise SpecError(
                    f"spec.faults[{i}].end_ms {f.end_ms:g} must be after "
                    f"start_ms {f.start_ms:g}"
                )
        # The stack and fault-plan rules live with StackConfig and
        # FaultSpec; run them now so `dc validate` catches what `dc run`
        # would otherwise die on.
        h = spec.hosts
        try:
            StackConfig(
                levels=h.stack_levels, guest_hv=h.guest_hv, workers=h.workers
            ).validate()
        except ValueError as exc:
            raise SpecError(f"spec.hosts: {exc}") from None
        try:
            spec.fault_plan(freq_hz=1e9)
        except ValueError as exc:
            raise SpecError(f"spec.faults: {exc}") from None
        return spec

    # ------------------------------------------------------------------
    def fault_plan(self, freq_hz: float) -> Optional[FaultPlan]:
        """Convert the ms-denominated fault windows into a cycle-
        denominated :class:`~repro.faults.plan.FaultPlan`."""
        if not self.faults:
            return None

        def cycles(ms: float) -> int:
            return int(ms * 1e-3 * freq_hz)

        specs = [
            FaultSpec(
                kind=f.kind,
                rate=f.rate,
                count=f.count,
                start=cycles(f.start_ms),
                end=None if f.end_ms is None else cycles(f.end_ms),
                param=f.param,
                mechanisms=f.targets,
            )
            for f in self.faults
        ]
        return FaultPlan(specs)

    def describe(self) -> str:
        t = self.topology
        return (
            f"{self.name} v{self.version}: {t.racks}x{t.hosts_per_rack} hosts, "
            f"{t.spines} spines, oversub {t.oversubscription:g}, "
            f"{self.tenants.count} tenants, policy {self.control.policy}"
        )

