"""Fault plans: declarative, seed-reproducible fault schedules.

A :class:`FaultPlan` is pure data — *what* can go wrong, how often, and
when.  The :class:`~repro.faults.injector.FaultInjector` turns a plan
into concrete hook installations and scheduled events against one
machine; all randomness comes from the injector's own seeded generator,
so the same ``(plan, seed)`` pair always injects the same faults at the
same simulated cycles.

An empty plan is the identity: attaching it installs no hooks, schedules
no events, and consumes no randomness, so runs with an empty-plan
injector are byte-identical to runs without one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["FaultClass", "FaultSpec", "FaultPlan"]


class FaultClass:
    """The fault classes the injector understands."""

    #: Physical NIC drops a packet on rx/tx.
    NIC_DROP = "nic_drop"
    #: Physical NIC truncates a packet's payload (bit-rot on the wire).
    NIC_CORRUPT = "nic_corrupt"
    #: A descriptor on a virtio ring is malformed before the backend
    #: services it (guest bug / shared-ring corruption).
    VIRTIO_MALFORMED = "virtio_malformed"
    #: A doorbell notification is lost in flight (missed ioeventfd).
    VIRTIO_KICK_DROP = "virtio_kick_drop"
    #: A device interrupt is dropped before it latches in the LAPIC.
    IRQ_DROP = "irq_drop"
    #: A spurious device interrupt is latched with no data behind it.
    IRQ_SPURIOUS = "irq_spurious"
    #: The IOMMU faults a DMA translation that should have succeeded.
    IOMMU_FAULT = "iommu_fault"
    #: Migration wire runs at a fraction of nominal bandwidth.
    MIG_BANDWIDTH = "mig_bandwidth"
    #: Migration wire goes down for whole windows of simulated time.
    MIG_LINK_FLAP = "mig_link_flap"
    #: Migration wire loses a fraction of bytes (retransmitted).
    MIG_LOSS = "mig_loss"
    #: DVH capability bits read as unavailable during negotiation.
    DVH_CAP_FAULT = "dvh_cap_fault"
    #: Datacenter fabric: a host's ToR link is partitioned for a window
    #: of simulated time (see repro.cluster.fabric).
    FABRIC_PARTITION = "fabric_partition"
    #: Datacenter fabric: a whole host drops off the fabric (power/kernel
    #: loss); traffic to or from it is undeliverable while active.
    FABRIC_HOST_LOSS = "fabric_host_loss"
    #: Datacenter fabric: links run at a fraction of nominal bandwidth
    #: (incast congestion, a flapping optic renegotiating rates).
    FABRIC_DEGRADE = "fabric_degrade"
    #: OoH feature grants are revoked mid-run (host reclaims the real
    #: virtual hardware); granted exits fall back to forwarding.
    #: ``mechanisms`` names the features to revoke (empty = all
    #: configured grants).
    OOH_GRANT_REVOKE = "ooh_grant_revoke"

    ALL: Tuple[str, ...] = (
        NIC_DROP,
        NIC_CORRUPT,
        VIRTIO_MALFORMED,
        VIRTIO_KICK_DROP,
        IRQ_DROP,
        IRQ_SPURIOUS,
        IOMMU_FAULT,
        MIG_BANDWIDTH,
        MIG_LINK_FLAP,
        MIG_LOSS,
        DVH_CAP_FAULT,
        FABRIC_PARTITION,
        FABRIC_HOST_LOSS,
        FABRIC_DEGRADE,
        OOH_GRANT_REVOKE,
    )

    #: Classes expressed as a per-opportunity probability (hook faults).
    RATE_BASED: Tuple[str, ...] = (
        NIC_DROP,
        NIC_CORRUPT,
        VIRTIO_KICK_DROP,
        IRQ_DROP,
        IOMMU_FAULT,
    )
    #: Classes injected as scheduled point events.
    SCHEDULED: Tuple[str, ...] = (IRQ_SPURIOUS, VIRTIO_MALFORMED)
    #: Classes consulted lazily by the migration wire.
    MIGRATION: Tuple[str, ...] = (MIG_BANDWIDTH, MIG_LINK_FLAP, MIG_LOSS)
    #: Classes consulted lazily by the cluster fabric (the injector is
    #: attached to the Fabric, not to a host machine).
    FABRIC: Tuple[str, ...] = (FABRIC_PARTITION, FABRIC_HOST_LOSS, FABRIC_DEGRADE)


@dataclass(frozen=True)
class FaultSpec:
    """One fault class with its intensity and activity window.

    ``rate`` is the per-opportunity probability for
    :attr:`FaultClass.RATE_BASED` classes; ``count`` is the number of
    point injections for :attr:`FaultClass.SCHEDULED` classes; ``param``
    carries the class-specific magnitude (bandwidth factor for
    ``mig_bandwidth``, loss fraction for ``mig_loss``, flap length in
    cycles for ``mig_link_flap``, bandwidth factor for
    ``fabric_degrade``); ``mechanisms`` names the DVH capability bits a
    ``dvh_cap_fault`` knocks out — or, for the fabric classes, the host
    names a partition/loss targets (empty = every host).
    """

    kind: str
    rate: float = 0.0
    count: int = 0
    #: Active window on the simulation clock; ``end=None`` = forever.
    start: int = 0
    end: Optional[int] = None
    param: Optional[float] = None
    mechanisms: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FaultClass.ALL:
            raise ValueError(f"unknown fault class {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.count < 0:
            raise ValueError("count must be >= 0")

    def active(self, now: int) -> bool:
        return now >= self.start and (self.end is None or now < self.end)


class FaultPlan:
    """An immutable set of :class:`FaultSpec` entries."""

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        by_kind = {}
        for spec in self.specs:
            if spec.kind in by_kind:
                raise ValueError(f"duplicate spec for {spec.kind!r}")
            by_kind[spec.kind] = spec
        self._by_kind = by_kind

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "FaultPlan":
        """The identity plan: nothing ever goes wrong."""
        return cls()

    @classmethod
    def random(
        cls,
        seed: int,
        classes: Optional[Iterable[str]] = None,
        intensity: float = 0.05,
        horizon: int = 20_000_000,
        max_classes: int = 4,
    ) -> "FaultPlan":
        """A deterministic pseudo-random plan: pick up to ``max_classes``
        fault classes and give each a seed-derived intensity.  The same
        seed always yields the same plan."""
        rng = random.Random(seed)
        pool = list(classes) if classes is not None else list(FaultClass.ALL)
        for kind in pool:
            if kind not in FaultClass.ALL:
                raise ValueError(f"unknown fault class {kind!r}")
        count = rng.randint(1, min(max_classes, len(pool)))
        chosen = rng.sample(sorted(pool), count)
        specs: List[FaultSpec] = []
        for kind in chosen:
            if kind in FaultClass.RATE_BASED:
                specs.append(
                    FaultSpec(kind=kind, rate=intensity * rng.uniform(0.2, 1.0))
                )
            elif kind in FaultClass.SCHEDULED:
                specs.append(
                    FaultSpec(
                        kind=kind,
                        count=rng.randint(1, 4),
                        start=rng.randrange(horizon // 4),
                        end=horizon,
                    )
                )
            elif kind == FaultClass.MIG_BANDWIDTH:
                specs.append(FaultSpec(kind=kind, param=rng.uniform(0.25, 0.9)))
            elif kind == FaultClass.MIG_LOSS:
                specs.append(FaultSpec(kind=kind, param=rng.uniform(0.01, 0.2)))
            elif kind in (FaultClass.MIG_LINK_FLAP, FaultClass.FABRIC_PARTITION,
                          FaultClass.FABRIC_HOST_LOSS):
                start = rng.randrange(horizon // 2)
                specs.append(
                    FaultSpec(
                        kind=kind,
                        start=start,
                        end=start + rng.randrange(100_000, 2_000_000),
                    )
                )
            elif kind == FaultClass.FABRIC_DEGRADE:
                specs.append(FaultSpec(kind=kind, param=rng.uniform(0.05, 0.5)))
            elif kind == FaultClass.OOH_GRANT_REVOKE:
                from repro.ooh.grants import OOH_FEATURES

                n = rng.randint(1, 2)
                specs.append(
                    FaultSpec(
                        kind=kind,
                        start=rng.randrange(horizon // 2),
                        mechanisms=tuple(rng.sample(OOH_FEATURES, n)),
                    )
                )
            else:  # DVH_CAP_FAULT
                from repro.core.features import DVH_MECHANISMS

                n = rng.randint(1, 2)
                specs.append(
                    FaultSpec(
                        kind=kind,
                        mechanisms=tuple(rng.sample(DVH_MECHANISMS, n)),
                    )
                )
        return cls(specs)

    # ------------------------------------------------------------------
    def spec_for(self, kind: str) -> Optional[FaultSpec]:
        return self._by_kind.get(kind)

    def faulted_mechanisms(self) -> Tuple[str, ...]:
        """DVH mechanisms a ``dvh_cap_fault`` spec knocks out."""
        spec = self.spec_for(FaultClass.DVH_CAP_FAULT)
        return spec.mechanisms if spec is not None else ()

    @property
    def is_empty(self) -> bool:
        return not self.specs

    def __len__(self) -> int:
        return len(self.specs)

    def describe(self) -> str:
        """One line per spec, for reports."""
        if not self.specs:
            return "(empty plan)"
        lines = []
        for spec in self.specs:
            bits = [spec.kind]
            if spec.rate:
                bits.append(f"rate={spec.rate:.4f}")
            if spec.count:
                bits.append(f"count={spec.count}")
            if spec.param is not None:
                bits.append(f"param={spec.param:.3f}")
            if spec.mechanisms:
                bits.append("mechanisms=" + ",".join(spec.mechanisms))
            if spec.start or spec.end is not None:
                bits.append(f"window=[{spec.start}, {spec.end})")
            lines.append("  ".join(bits))
        return "\n".join(lines)
