"""The measurement configurations of the paper's evaluation (§4).

Names follow the figures' legends.  Each entry is a factory (stacks hold
mutable simulation state, so every run gets a fresh one); the runners
call each factory once and hand the resulting :class:`StackConfig` to
their cells.  :data:`FIGURES` is the one registry of the application
figures: the runner, the CLI and the tests read figure numbers from it.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.core.features import DvhFeatures
from repro.hv.stack import StackConfig

__all__ = [
    "TABLE3_CONFIGS",
    "FIG7_CONFIGS",
    "FIG8_CONFIGS",
    "FIG9_CONFIGS",
    "FIG10_CONFIGS",
    "FIGURES",
    "config_factory",
]


def config_factory(**kwargs) -> Callable[[], StackConfig]:
    """A factory producing fresh StackConfig values."""

    def make() -> StackConfig:
        return StackConfig(**kwargs)

    return make


#: Table 3: microbenchmarks in VM / nested / nested+DVH / L3 / L3+DVH.
TABLE3_CONFIGS: List[Tuple[str, Callable[[], StackConfig]]] = [
    ("VM", config_factory(levels=1, io_model="virtio")),
    ("nested VM", config_factory(levels=2, io_model="virtio")),
    (
        "nested VM + DVH",
        config_factory(levels=2, io_model="vp", dvh=DvhFeatures.full()),
    ),
    ("L3 VM", config_factory(levels=3, io_model="virtio")),
    ("L3 VM + DVH", config_factory(levels=3, io_model="vp", dvh=DvhFeatures.full())),
]

#: Figure 7: application performance, six VM configurations (plus native
#: as the normalization baseline).
FIG7_CONFIGS: List[Tuple[str, Callable[[], StackConfig]]] = [
    ("native", config_factory(levels=0, io_model="native")),
    ("VM", config_factory(levels=1, io_model="virtio")),
    ("VM + passthrough", config_factory(levels=1, io_model="passthrough")),
    ("Nested VM", config_factory(levels=2, io_model="virtio")),
    ("Nested VM + passthrough", config_factory(levels=2, io_model="passthrough")),
    (
        "Nested VM + DVH-VP",
        config_factory(levels=2, io_model="vp", dvh=DvhFeatures.vp_only()),
    ),
    (
        "Nested VM + DVH",
        config_factory(levels=2, io_model="vp", dvh=DvhFeatures.full()),
    ),
]

#: Figure 8: incremental DVH breakdown on the nested VM.
FIG8_CONFIGS: List[Tuple[str, Callable[[], StackConfig]]] = [
    ("native", config_factory(levels=0, io_model="native")),
    ("Nested VM", config_factory(levels=2, io_model="virtio")),
    (
        "Nested VM + DVH-VP",
        config_factory(levels=2, io_model="vp", dvh=DvhFeatures.vp_only()),
    ),
    (
        "+ posted interrupts",
        config_factory(
            levels=2,
            io_model="vp",
            dvh=DvhFeatures.vp_only().with_(viommu_posted_interrupts=True),
        ),
    ),
    (
        "+ virtual IPIs",
        config_factory(
            levels=2,
            io_model="vp",
            dvh=DvhFeatures.vp_only().with_(
                viommu_posted_interrupts=True, virtual_ipi=True
            ),
        ),
    ),
    (
        "+ virtual timers",
        config_factory(
            levels=2,
            io_model="vp",
            dvh=DvhFeatures.vp_only().with_(
                viommu_posted_interrupts=True,
                virtual_ipi=True,
                virtual_timer=True,
            ),
        ),
    ),
    (
        "+ virtual idle (= DVH)",
        config_factory(levels=2, io_model="vp", dvh=DvhFeatures.full()),
    ),
]

#: Figure 9: three levels of virtualization.
FIG9_CONFIGS: List[Tuple[str, Callable[[], StackConfig]]] = [
    ("native", config_factory(levels=0, io_model="native")),
    ("VM", config_factory(levels=1, io_model="virtio")),
    ("VM + passthrough", config_factory(levels=1, io_model="passthrough")),
    ("L3", config_factory(levels=3, io_model="virtio")),
    ("L3 + passthrough", config_factory(levels=3, io_model="passthrough")),
    ("L3 + DVH-VP", config_factory(levels=3, io_model="vp", dvh=DvhFeatures.vp_only())),
    ("L3 + DVH", config_factory(levels=3, io_model="vp", dvh=DvhFeatures.full())),
]

#: Figure 10: Xen as the guest hypervisor on a KVM host.  Only DVH-VP is
#: measured with Xen, since it needs no guest-hypervisor modifications
#: ("virtual-passthrough can be used without any guest hypervisor
#: modifications", §4).
FIG10_CONFIGS: List[Tuple[str, Callable[[], StackConfig]]] = [
    ("native", config_factory(levels=0, io_model="native")),
    ("VM", config_factory(levels=1, io_model="virtio")),
    ("VM + passthrough", config_factory(levels=1, io_model="passthrough")),
    ("Nested VM (Xen)", config_factory(levels=2, io_model="virtio", guest_hv="xen")),
    (
        "Nested VM + passthrough (Xen)",
        config_factory(levels=2, io_model="passthrough", guest_hv="xen"),
    ),
    (
        "Nested VM + DVH-VP (Xen)",
        config_factory(
            levels=2, io_model="vp", dvh=DvhFeatures.vp_only(), guest_hv="xen"
        ),
    ),
]

#: Figure number -> (title, configurations).
FIGURES = {
    "7": ("Figure 7: Application performance", FIG7_CONFIGS),
    "8": ("Figure 8: Application performance breakdown", FIG8_CONFIGS),
    "9": ("Figure 9: Application performance in L3 VM", FIG9_CONFIGS),
    "10": ("Figure 10: Application performance, Xen on KVM", FIG10_CONFIGS),
}
