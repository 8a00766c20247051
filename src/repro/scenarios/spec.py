"""Scenario specifications: frozen, canonical, replayable.

A :class:`ScenarioSpec` is the *complete* description of one generated
stimulus — topology, architecture, stack shape, tenant mix, feature
grants, fault schedule and workload size.  Everything downstream
(:mod:`repro.scenarios.runner`, the auditor, the shrinker) consumes only
the spec, never the generator's RNG, so a spec round-trips through JSON
and replays byte-identically on any machine.

Canonical form: :meth:`ScenarioSpec.to_json` emits sorted keys with
compact separators, so two runs of ``scenarios gen --seed N`` produce
byte-identical bytes and :meth:`digest` is stable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Tuple

from repro.cluster import POLICIES, TenantSpec, canonical_sha256
from repro.core.features import DVH_PRESETS
from repro.faults.plan import FaultPlan
from repro.hv.stack import StackConfig
from repro.ooh.grants import GrantSet

__all__ = ["ScenarioSpec", "TenantDraw", "dvh_name"]


def dvh_name(dvh) -> str:
    """Map a :class:`~repro.core.features.DvhFeatures` value back to its
    preset name.  The generator only ever draws the three presets."""
    for name, preset in DVH_PRESETS.items():
        if dvh == preset():
            return name
    raise ValueError(f"not a preset DvhFeatures value: {dvh!r}")


@dataclass(frozen=True)
class TenantDraw:
    """One cluster tenant in a generated fleet (mirrors
    :class:`~repro.cluster.TenantSpec`, but JSON-friendly)."""

    name: str
    io_model: str
    memory_gb: int
    load: int
    dirty_pages: int

    def to_tenant_spec(self):
        return TenantSpec(
            name=self.name,
            io_model=self.io_model,
            memory_gb=self.memory_gb,
            load=self.load,
            dirty_pages=self.dirty_pages,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One constrained-random scenario, fully resolved.

    ``topology`` selects the runner: ``"machine"`` builds one faulted
    stack and drives the op soup through it; ``"cluster"`` boots a fleet,
    places the tenant mix, streams cross-host traffic and evacuates
    host0 — the two stimulus shapes every campaign is made of (``faults
    fuzz``/``plan``, the audit matrix, ``scenarios run``).
    """

    seed: int
    topology: str  # "machine" | "cluster"
    arch: str = "x86"
    guest_hv: str = "kvm"
    # -- machine topology --------------------------------------------
    levels: int = 2
    io_model: str = "virtio"
    dvh: str = "none"  # a key of DVH_PRESETS
    workers: int = 2
    grants: Tuple[str, ...] = ()
    ops_per_worker: int = 20
    # -- fault schedule ----------------------------------------------
    fault_classes: Tuple[str, ...] = ()
    fault_seed: int = 0
    intensity: float = 0.08
    # -- cluster topology --------------------------------------------
    hosts: int = 0
    policy: str = ""
    tenants: Tuple[TenantDraw, ...] = ()

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def dvh_features(self):
        return DVH_PRESETS[self.dvh]()

    def grant_set(self):
        if not self.grants:
            return None
        return GrantSet.from_names(list(self.grants))

    def stack_config(self):
        """The machine-topology stack, rebuilt from spec fields alone."""
        return StackConfig(
            levels=self.levels,
            io_model=self.io_model,
            dvh=self.dvh_features(),
            guest_hv=self.guest_hv,
            workers=self.workers,
            seed=self.seed,
            arch=self.arch,
            ooh=self.grant_set(),
        )

    def fault_plan(self):
        """The seed-derived fault schedule (None when no classes drew)."""
        if not self.fault_classes:
            return None
        return FaultPlan.random(
            self.fault_seed,
            classes=list(self.fault_classes),
            intensity=self.intensity,
        )

    def tenant_specs(self):
        return [t.to_tenant_spec() for t in self.tenants]

    # ------------------------------------------------------------------
    # Constraint validation — reuses the stack/grant/tenant rejection
    # rules rather than duplicating them.
    # ------------------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        if self.topology not in ("machine", "cluster"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.topology == "machine":
            self.stack_config().validate()
            self.fault_plan()  # FaultPlan validates class names
        else:
            if self.hosts < 2:
                raise ValueError("a cluster scenario needs >= 2 hosts")
            if self.policy not in POLICIES:
                raise ValueError(f"unknown policy {self.policy!r}")
            if not self.tenants:
                raise ValueError("a cluster scenario needs tenants")
            # Host boot config must itself be valid for this arch/hv.
            StackConfig(
                levels=self.levels,
                guest_hv=self.guest_hv,
                workers=self.workers,
                arch=self.arch,
            ).validate()
            for tenant in self.tenants:
                tenant.to_tenant_spec()  # TenantSpec.__post_init__ validates
        return self

    # ------------------------------------------------------------------
    # Canonical serialization
    # ------------------------------------------------------------------
    @property
    def desc(self) -> str:
        if self.topology == "machine":
            extras = "+dvh" if self.dvh != "none" else ""
            grants = f"+ooh{len(self.grants)}" if self.grants else ""
            return (
                f"{self.arch}/{self.guest_hv} L{self.levels}/"
                f"{self.io_model}{extras}{grants}"
            )
        return (
            f"{self.arch}/{self.guest_hv} cluster/{self.policy} "
            f"hosts={self.hosts} tenants={len(self.tenants)}"
        )

    def to_dict(self) -> Dict:
        return asdict(self)

    def to_json(self) -> str:
        """Canonical bytes: sorted keys, compact separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return canonical_sha256(self.to_dict())

    @classmethod
    def from_dict(cls, data: Dict) -> "ScenarioSpec":
        data = dict(data)
        data["grants"] = tuple(data.get("grants", ()))
        data["fault_classes"] = tuple(data.get("fault_classes", ()))
        data["tenants"] = tuple(
            TenantDraw(**t) for t in data.get("tenants", ())
        )
        return cls(**data)

    @classmethod
    def from_json(cls, blob: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(blob))
