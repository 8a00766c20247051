"""Stack builder: assemble native / VM / nested / L3 configurations.

Reproduces the paper's four measurement configurations (§4):

* **native** — bare metal, 4 cores;
* **VM** — an L1 VM with 4 worker vCPUs;
* **nested VM** — an L2 VM on an L1 KVM (or Xen) guest hypervisor;
* **L3 VM** — one more level.

Each level's hypervisor gets extra cores for its backends ("two cores and
12 GB RAM were added for the hypervisor at each virtualization level"),
and every vCPU is pinned 1:1 to a physical CPU, as the paper does.

The I/O model and DVH feature set are per-configuration knobs, giving the
six bars of Figures 7/9 and the increments of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.features import DvhFeatures
from repro.core.vidle import enable_virtual_idle
from repro.core.vipi import setup_virtual_ipis
from repro.core.vpassthrough import assign_virtual_device, populate_chain_epts
from repro.core.migration import add_migration_capability
from repro.core.vtimer import enable_virtual_timers
from repro.hw.devices.virtio import VirtioDevice
from repro.hw.machine import GB, Machine
from repro.hv.blk_backend import (
    GuestBlkBackend,
    HostBlkBackend,
    NativeBlkDriver,
    VirtioBlkDriver,
)
from repro.hv.kvm import KvmHypervisor
from repro.hv.passthrough import assign_physical_device, dma_pool_pfns
from repro.hv.profiles import PROFILES
from repro.hv.virtio_backend import (
    GuestVhost,
    HostVhost,
    NativeNicDriver,
    VfNicDriver,
    VirtioDriver,
)
from repro.ooh.grants import GrantSet, GrantTable

__all__ = ["StackConfig", "Stack", "build_stack"]

#: Deepest supported virtualization level (the paper's testbed stops at
#: 3; the simulator goes further to exercise recursive DVH).
MAX_LEVELS = 5

#: Network I/O models.
IO_VIRTIO = "virtio"  # Figure 2a cascade ("paravirtual I/O")
IO_PASSTHROUGH = "passthrough"  # Figure 2b (SR-IOV VF)
IO_VIRTUAL_PASSTHROUGH = "vp"  # Figure 2c (DVH virtual-passthrough)
IO_NATIVE = "native"


@dataclass
class StackConfig:
    """One measurement configuration."""

    #: 0 = native, 1 = VM, 2 = nested VM, 3 = L3 VM.  The paper stops at
    #: L3 ("additional virtualization levels are not supported by KVM");
    #: the simulator supports deeper stacks up to MAX_LEVELS, exercising
    #: recursive DVH (S3.5) beyond what the authors could measure.
    levels: int = 1
    io_model: str = IO_VIRTIO
    dvh: DvhFeatures = field(default_factory=DvhFeatures.none)
    #: "kvm", "xen", or "hs" — the guest hypervisor flavour (Figure 10;
    #: "hs" is the RISC-V HS-mode hypervisor and requires arch="riscv",
    #: where a default of "kvm" coerces to it).
    guest_hv: str = "kvm"
    #: Leaf worker vCPUs (the paper's measured config has 4 cores).
    workers: int = 4
    flow: str = "bench"
    seed: int = 0
    #: Ablation: disable VMCS shadowing in the platform.
    vmcs_shadowing: bool = True
    #: L0 timer-emulation backend: "hrtimer" or "preemption" (S3.2).
    timer_backend: str = "hrtimer"
    #: Platform cost profile: "x86" (the paper's testbed), "arm"
    #: (S3/S4: DVH-VP measured on ARM too) or "riscv" (H-extension).
    #: I/O models are platform-agnostic.
    arch: str = "x86"
    #: OoH feature grants to the L1 guest hypervisor (see repro.ooh), or
    #: None = the grant layer is absent entirely (byte-identical to a
    #: pre-OoH build).  An empty GrantSet installs the layer with no
    #: grants: granted-vs-forwarded attribution and dirty-tracking
    #: pricing run, everything forwards.
    ooh: Optional[GrantSet] = None

    def validate(self) -> None:
        if self.levels < 0 or self.levels > MAX_LEVELS:
            raise ValueError(f"levels must be 0..{MAX_LEVELS}")
        if self.levels == 0 and self.io_model != IO_NATIVE:
            object.__setattr__(self, "io_model", IO_NATIVE)
        if self.io_model == IO_VIRTUAL_PASSTHROUGH and self.levels < 2:
            raise ValueError("virtual-passthrough targets nested VMs")
        if self.guest_hv not in ("kvm", "xen", "hs"):
            raise ValueError("guest_hv must be kvm, xen, or hs")
        if self.timer_backend not in ("hrtimer", "preemption"):
            raise ValueError("timer_backend must be hrtimer or preemption")
        if self.arch not in ("x86", "arm", "riscv"):
            raise ValueError("arch must be x86, arm, or riscv")
        if self.arch == "riscv":
            if self.guest_hv == "kvm":
                # KVM's RISC-V port *is* an HS-mode hypervisor: the
                # default guest-hv flavour resolves to the HS profile,
                # mirroring the io_model coercion above.
                object.__setattr__(self, "guest_hv", "hs")
            elif self.guest_hv != "hs":
                raise ValueError(
                    f"guest_hv {self.guest_hv!r} is not modeled on riscv"
                )
        elif self.guest_hv == "hs":
            raise ValueError("guest_hv 'hs' requires arch='riscv'")
        if self.ooh is not None:
            # Typed GrantError/GrantConflictError at build time: a
            # misconfigured grant never reaches a built stack.
            self.ooh.validate(self.levels, self.io_model, self.dvh)


class Stack:
    """A built configuration, ready to run workloads."""

    def __init__(self, config: StackConfig, machine: Machine) -> None:
        self.config = config
        self.machine = machine
        #: Leaf execution contexts for workload workers.
        self.ctxs: List = []
        #: Network driver bound to worker 0.
        self.net = None
        #: Block driver bound to worker 0.
        self.blk = None
        self.vms: List = []
        self.hvs: List = []  # [l0, hv1, ...] or [] for native
        self.vp_assignment = None

    @property
    def sim(self):
        return self.machine.sim

    @property
    def metrics(self):
        return self.machine.metrics

    @property
    def leaf_vm(self):
        return self.vms[-1] if self.vms else None

    @property
    def flow(self) -> str:
        return self.config.flow

    def ctx(self, i: int = 0):
        return self.ctxs[i]

    def settle(self) -> None:
        """Run the simulation until everything is blocked (backends have
        entered their idle waits).  Useful before counter-based tests so
        startup HLT exits don't pollute measurements."""
        self.sim.run()


def build_stack(config: StackConfig, machine: Machine = None) -> Stack:
    """Build the whole configuration: machine, hypervisors, VMs, devices,
    backends, and DVH feature enablement.

    ``machine`` lets a caller supply a pre-built :class:`Machine` — the
    cluster layer (:mod:`repro.cluster`) uses this to boot several hosts
    on one shared simulator so the whole datacenter marches on a single
    deterministic clock.  When omitted, a fresh machine (and simulator)
    is created from the config, exactly as before.
    """
    config.validate()
    if machine is None:
        from repro.sim.costs import costs_for_arch

        costs = None if config.arch == "x86" else costs_for_arch(config.arch)
        machine = Machine(seed=config.seed, costs=costs)
    if config.ooh is not None:
        machine.ooh = GrantTable(config.ooh, machine.metrics)
    stack = Stack(config, machine)
    if config.levels == 0:
        return _build_native(stack)
    return _build_virtualized(stack)


# ----------------------------------------------------------------------
# Native
# ----------------------------------------------------------------------
def _build_native(stack: Stack) -> Stack:
    machine = stack.machine
    stack.ctxs = machine.native_contexts(stack.config.workers)
    stack.net = NativeNicDriver(stack.ctxs[0], machine.nic, stack.config.flow)
    stack.blk = NativeBlkDriver(stack.ctxs[0], machine.ssd)
    return stack


# ----------------------------------------------------------------------
# Virtualized (1-3 levels)
# ----------------------------------------------------------------------
def _build_virtualized(stack: Stack) -> Stack:
    config = stack.config
    machine = stack.machine
    levels = config.levels
    workers = config.workers

    # --- hypervisors ---------------------------------------------
    l0 = KvmHypervisor(machine, level=0, dvh=config.dvh)
    l0.capability.vmcs_shadowing = (
        config.vmcs_shadowing and config.arch == "x86"
    )
    l0.timer_backend = config.timer_backend
    machine.host_hv = l0
    machine.hv_stack = [l0]
    stack.hvs = [l0]
    # Fail loudly now (typed DispatchTableError) if any ExitReason would
    # None-dispatch at runtime for the active guest-hv profile.
    l0.registry.validate_tables(config.guest_hv if levels >= 2 else None)

    # --- VMs and vCPU chains -------------------------------------
    # Worker chains on pCPUs 0..workers-1; backend vCPUs for level j's
    # hypervisor live on dedicated pCPUs (net and blk workers).
    def net_backend_pcpu(j: int) -> int:
        return workers + 2 * (j - 1)

    def blk_backend_pcpu(j: int) -> int:
        return workers + 2 * (j - 1) + 1

    vms: List = []
    vcpu_at: Dict = {}  # (level, pcpu_idx) -> VCpu
    for m in range(1, levels + 1):
        mgr = stack.hvs[m - 1]
        vm = mgr.create_vm(f"L{m}", memory_bytes=(12 + 12 * (levels - m)) * GB)
        vms.append(vm)
        pcpus = list(range(workers))
        for j in range(m, levels):  # backend pCPUs this VM must cover
            pcpus.append(net_backend_pcpu(j))
            pcpus.append(blk_backend_pcpu(j))
        for p in pcpus:
            parent = vcpu_at.get((m - 1, p))
            vcpu = vm.add_vcpu(machine.cpus[p], parent)
            vcpu.vmcs.set_base_tsc_offset(-(m * 1009 + p * 13))
            if m >= 2 and l0.capability.vmcs_shadowing:
                vcpu.vmcs.controls.shadow_vmcs = True
            vcpu.vmcs.controls.apicv = True
            vcpu.vmcs.controls.posted_interrupts = True
            vcpu_at[(m, p)] = vcpu
        if m < levels:
            ghv = KvmHypervisor(
                machine, level=m, vm=vm, profile=PROFILES[config.guest_hv]
            )
            stack.hvs[m - 1].expose_capability_to(ghv)
            machine.hv_stack.append(ghv)
            stack.hvs.append(ghv)
    stack.vms = vms
    leaf_vm = vms[-1]
    stack.ctxs = [vcpu_at[(levels, p)] for p in range(workers)]

    # --- DVH feature enablement (the §3.5 recursive AND) ----------
    if levels >= 2:
        if config.dvh.virtual_timer:
            enable_virtual_timers(stack.hvs, leaf_vm)
        if config.dvh.virtual_ipi:
            setup_virtual_ipis(stack.hvs, leaf_vm)
        if config.dvh.virtual_idle:
            enable_virtual_idle(stack.hvs, leaf_vm)

    # --- network I/O ----------------------------------------------
    flow = config.flow
    if config.io_model == IO_PASSTHROUGH:
        vf = machine.nic.create_vf()
        pfns = dma_pool_pfns()
        populate_chain_epts(leaf_vm, pfns)
        # BAR address must exist before mapping it through.
        machine.bus.plug(vf)
        assign_physical_device(machine, vf, leaf_vm, pfns)
        stack.net = VfNicDriver(stack.ctxs[0], vf, flow)
    elif config.io_model == IO_VIRTUAL_PASSTHROUGH:
        dev = VirtioDevice(
            "virtio-net-vp",
            kind="net",
            num_queues=2 * workers,
            provider_level=0,
        )
        leaf_vm.bus.plug(dev)
        add_migration_capability(dev)
        assignment = assign_virtual_device(
            machine,
            dev,
            leaf_vm,
            posted_interrupts=config.dvh.viommu_posted_interrupts,
        )
        stack.vp_assignment = assignment
        vhost = HostVhost(
            l0, dev, user_vm=leaf_vm, flow=flow, translate=assignment.translate
        )
        vhost.start()
        stack.net = VirtioDriver(stack.ctxs[0], dev)
    else:  # IO_VIRTIO cascade
        net_devs = []
        for m in range(1, levels + 1):
            dev = VirtioDevice(
                f"virtio-net-L{m}",
                kind="net",
                num_queues=2 * workers,
                provider_level=m - 1,
            )
            vms[m - 1].bus.plug(dev)
            net_devs.append(dev)
        add_migration_capability(net_devs[0])
        vhost = HostVhost(l0, net_devs[0], user_vm=vms[0], flow=flow)
        vhost.start()
        lower_driver = None
        for m in range(1, levels):
            backend_ctx = vcpu_at[(m, net_backend_pcpu(m))]
            lower_driver = VirtioDriver(backend_ctx, net_devs[m - 1])
            gv = GuestVhost(stack.hvs[m], net_devs[m], lower_driver, backend_ctx)
            gv.start()
        stack.net = VirtioDriver(stack.ctxs[0], net_devs[-1])

    # --- block I/O -------------------------------------------------
    if config.io_model == IO_VIRTUAL_PASSTHROUGH:
        bdev = VirtioDevice("virtio-blk-vp", kind="blk", num_queues=1, provider_level=0)
        leaf_vm.bus.plug(bdev)
        hb = HostBlkBackend(l0, bdev, user_vm=leaf_vm)
        hb.start()
        stack.blk = VirtioBlkDriver(stack.ctxs[0], bdev)
    else:
        blk_devs = []
        for m in range(1, levels + 1):
            bdev = VirtioDevice(
                f"virtio-blk-L{m}", kind="blk", num_queues=1, provider_level=m - 1
            )
            vms[m - 1].bus.plug(bdev)
            blk_devs.append(bdev)
        hb = HostBlkBackend(l0, blk_devs[0], user_vm=vms[0])
        hb.start()
        for m in range(1, levels):
            backend_ctx = vcpu_at[(m, blk_backend_pcpu(m))]
            lower = VirtioBlkDriver(backend_ctx, blk_devs[m - 1])
            gb = GuestBlkBackend(stack.hvs[m], blk_devs[m], lower, backend_ctx)
            gb.start()
        stack.blk = VirtioBlkDriver(stack.ctxs[0], blk_devs[-1])

    return stack
