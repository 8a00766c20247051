"""Cluster hosts and tenant VMs.

A :class:`ClusterHost` is one datacenter server: a full
:class:`~repro.hw.machine.Machine` built on the cluster's *shared*
simulator, booted with a complete KVM (or Xen) hypervisor stack through
:func:`repro.hv.stack.build_stack`.  Tenant VMs are then admitted on top
of the booted stack:

* ``virtio`` tenants — L1 VMs with a paravirtual NIC (migration
  capability attached, so they live-migrate);
* ``vp`` tenants — **nested** (L2) VMs using DVH virtual-passthrough
  (§3.6): the device is the host's, fully encapsulable, so the tenant
  migrates even though it drives what looks like passthrough hardware;
* ``passthrough`` tenants — nested VMs with a real SR-IOV VF assigned.
  :func:`~repro.hv.passthrough.assign_physical_device` marks the whole
  chain ``hardware_coupled``; migrating one raises
  :class:`~repro.hv.passthrough.MigrationNotSupported`.  The asymmetry
  is emergent, not special-cased here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.migration import add_migration_capability
from repro.core.vpassthrough import assign_virtual_device
from repro.hw.devices.virtio import VirtioDevice
from repro.hw.machine import GB, Machine
from repro.hw.mem import PAGE_SIZE
from repro.hv.passthrough import assign_physical_device, dma_pool_pfns
from repro.hv.stack import (
    IO_VIRTIO,
    StackConfig,
    build_stack,
)
from repro.hv.virtio_backend import HostVhost
from repro.core.vpassthrough import populate_chain_epts
from repro.ooh.grants import GrantConflictError, GrantSet, GrantTable

__all__ = ["TenantSpec", "Tenant", "ClusterHost"]

#: Tenant network I/O models (cluster-level names).
TENANT_VIRTIO = "virtio"
TENANT_VP = "vp"
TENANT_PASSTHROUGH = "passthrough"

_TENANT_MODELS = (TENANT_VIRTIO, TENANT_VP, TENANT_PASSTHROUGH)

#: Default steady-state cycle-load capacity a host offers per worker
#: vCPU.  ``fits`` refuses tenants past this headroom so control-plane
#: rebalancing cannot thrash tenants onto an already-hot host (the
#: memory check alone would happily stack them).
LOAD_PER_WORKER = 12_000

#: Memory of a :class:`~repro.hw.machine.Machine` built with defaults —
#: what an unbooted (quiescent) host will have once it boots.  Capacity
#: accounting must not depend on whether the stack is built yet.
HOST_MEMORY_BYTES = 192 * GB


@dataclass(frozen=True, slots=True)
class TenantSpec:
    """What a tenant asks for."""

    name: str
    #: "virtio" (L1 VM), "vp" (nested VM, DVH virtual-passthrough) or
    #: "passthrough" (nested VM, physical SR-IOV VF).
    io_model: str = TENANT_VIRTIO
    memory_gb: int = 12
    #: Abstract steady-state CPU demand (cycles per scheduling quantum);
    #: what the load-balance placement policy packs against.
    load: int = 1_000
    #: Pages the tenant's workload re-dirties per dirtying interval while
    #: it runs (drives live-migration pre-copy rounds).
    dirty_pages: int = 64
    #: OoH feature grants this tenant's placement asks the host to hand
    #: its guest hypervisor (names from ``repro.ooh.OOH_FEATURES``).
    #: Installed on the host's machine at admission; only meaningful for
    #: nested tenants ("vp"), whose exits the grants short-circuit.
    grants: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.io_model not in _TENANT_MODELS:
            raise ValueError(
                f"io_model must be one of {_TENANT_MODELS}, got "
                f"{self.io_model!r}"
            )
        if self.memory_gb <= 0:
            raise ValueError("memory_gb must be positive")
        if self.grants:
            # Unknown names raise UnknownGrantError here, at spec time.
            granted = GrantSet.from_names(self.grants)
            if self.io_model == TENANT_PASSTHROUGH and (
                granted.dirty_logging or granted.dirty_ring
            ):
                raise GrantConflictError(
                    f"{self.name}: dirty-tracking grants cannot cover a "
                    "passthrough tenant: device DMA bypasses the granted log"
                )


@dataclass(slots=True)
class Tenant:
    """A placed tenant: the spec plus the live objects backing it."""

    spec: TenantSpec
    host: str
    vm: object
    #: Virtual devices whose state travels through the PCI migration
    #: capability on migration (empty for passthrough tenants — their VF
    #: is hardware, there is nothing encapsulable to capture).
    devices: List = field(default_factory=list)
    #: How many times this tenant has been live-migrated.
    migrations: int = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def memory_bytes(self) -> int:
        return self.spec.memory_gb * GB

    def dirty_some_pages(self, round_idx: int) -> None:
        """The tenant's workload touches memory: re-dirty a sliding
        window of pages (feeds migration dirty logs)."""
        pages = self.spec.dirty_pages
        if pages <= 0:
            return
        span = max(pages * 4, 1)
        start_page = (round_idx * pages) % span
        self.vm.memory.write_range(start_page * PAGE_SIZE, pages * PAGE_SIZE)


class ClusterHost:
    """One server of the cluster, booted and accepting tenants."""

    def __init__(
        self,
        name: str,
        sim,
        costs,
        guest_hv: str = "kvm",
        arch: str = "x86",
        stack_levels: int = 2,
        workers: int = 2,
        seed: int = 0,
        lazy: bool = False,
        load_capacity: Optional[int] = None,
    ) -> None:
        self.name = name
        self.guest_hv = guest_hv
        self.arch = arch
        self.seed = seed
        self._sim = sim
        self._costs = costs
        self._stack_levels = stack_levels
        self.tenants: Dict[str, Tenant] = {}
        #: Fabric port, set by the cluster when it attaches this host.
        self.port = None
        #: pCPUs the system stack claimed; tenants share the worker pool
        #: (vCPU overcommit, like a real cloud host).
        self._workers = workers
        #: Cycle-load admission ceiling (see ``fits``).
        self.load_capacity = (
            load_capacity if load_capacity is not None else workers * LOAD_PER_WORKER
        )
        #: Capacity reserved for in-flight migrations targeting this
        #: host (name -> spec): every orchestrated migration claims
        #: destination room up front so two concurrent pre-copies cannot
        #: race into the same free bytes.
        self._reservations: Dict[str, TenantSpec] = {}
        #: How many times this host's system stack has been built (a
        #: quiescent host that never sees a tenant stays at zero).
        self.boots = 0
        self.machine: Optional[Machine] = None
        #: The host's booted system stack: L0, the L1 guest hypervisor,
        #: and the management VMs — the platform tenants land on.
        #: ``None`` while the host is quiescent (lazy, pre-first-touch)
        #: or down for a kernel upgrade.
        self.stack = None
        if not lazy:
            self.boot()

    # ------------------------------------------------------------------
    # Boot / teardown (the quiescent-host optimization)
    # ------------------------------------------------------------------
    @property
    def booted(self) -> bool:
        return self.stack is not None

    def boot(self) -> None:
        """Build the machine and its full system stack.  Idempotent.

        A quiescent host defers this until a tenant, migration, or
        explicit touch needs the stack; until then it contributes zero
        engine events and no Metrics to fast-forward fingerprints.
        Accounting stays byte-identical either way: booting only parks
        backend processes on events and never draws the shared RNG or
        writes the cluster trace.
        """
        if self.stack is not None:
            return
        self.machine = Machine(sim=self._sim, costs=self._costs)
        config = StackConfig(
            levels=self._stack_levels,
            io_model=IO_VIRTIO,
            guest_hv=self.guest_hv,
            workers=self._workers,
            flow=f"{self.name}-sys",
            seed=self.seed,
            arch=self.arch,
        )
        self.stack = build_stack(config, machine=self.machine)
        self.boots += 1

    def ensure_booted(self) -> None:
        self.boot()

    def shutdown(self) -> None:
        """Tear the system stack down (the power-off half of a kernel
        upgrade).  Only a tenant-free host may shut down.  The machine's
        Metrics and fast-forward veto are unregistered so the shared
        simulator stops holding on to the dead machine."""
        if self.tenants:
            raise ValueError(
                f"{self.name}: cannot shut down with "
                f"{len(self.tenants)} tenants aboard"
            )
        if self.machine is not None:
            ff = getattr(self._sim, "ff", None)
            if ff is not None:
                ff.unregister_metrics(self.machine.metrics)
                ff.remove_veto(self.machine._ff_veto)
        self.machine = None
        self.stack = None

    # ------------------------------------------------------------------
    # Capacity accounting (what placement policies read)
    # ------------------------------------------------------------------
    @property
    def l0(self):
        self.ensure_booted()
        return self.machine.host_hv

    @property
    def guest_hypervisor(self):
        """The L1 guest hypervisor (None on a 1-level host)."""
        self.ensure_booted()
        return self.stack.hvs[1] if len(self.stack.hvs) > 1 else None

    @property
    def mem_total(self) -> int:
        if self.machine is not None:
            return self.machine.memory.size_bytes
        return HOST_MEMORY_BYTES

    @property
    def mem_committed(self) -> int:
        return sum(t.memory_bytes for t in self.tenants.values())

    @property
    def mem_reserved(self) -> int:
        return sum(s.memory_gb * GB for s in self._reservations.values())

    @property
    def mem_free(self) -> int:
        return self.mem_total - self.mem_committed - self.mem_reserved

    @property
    def cycle_load(self) -> int:
        """Committed steady-state CPU demand across tenants."""
        return sum(t.spec.load for t in self.tenants.values())

    @property
    def load_reserved(self) -> int:
        return sum(s.load for s in self._reservations.values())

    def fits(self, spec: TenantSpec) -> bool:
        """Memory AND cycle-load headroom: a tenant must find both its
        bytes and its steady-state CPU demand free (reservations held by
        in-flight migrations count as taken)."""
        if spec.memory_gb * GB > self.mem_free:
            return False
        return self.cycle_load + self.load_reserved + spec.load <= self.load_capacity

    # ------------------------------------------------------------------
    # Migration reservations (held by the orchestrator's attempt loop)
    # ------------------------------------------------------------------
    def reserve(self, spec: TenantSpec) -> None:
        """Hold capacity for an inbound migration of ``spec``."""
        if spec.name in self._reservations:
            raise ValueError(f"{spec.name} already reserved on {self.name}")
        self._reservations[spec.name] = spec

    def release(self, name: str) -> None:
        """Drop a reservation (migration finished or failed)."""
        self._reservations.pop(name, None)

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------
    def admit(self, spec: TenantSpec) -> Tenant:
        """Create the tenant's VM (and device plumbing) on this host."""
        self.ensure_booted()
        if spec.name in self.tenants:
            raise ValueError(f"{spec.name} already on {self.name}")
        if not self.fits(spec):
            raise ValueError(
                f"{self.name}: {spec.name} needs {spec.memory_gb} GB, "
                f"only {self.mem_free // GB} GB free"
            )
        if spec.grants:
            self._install_grants(GrantSet.from_names(spec.grants))
        if spec.io_model == TENANT_VIRTIO:
            tenant = self._admit_virtio(spec)
        elif spec.io_model == TENANT_VP:
            tenant = self._admit_vp(spec)
        else:
            tenant = self._admit_passthrough(spec)
        self.tenants[spec.name] = tenant
        return tenant

    def _install_grants(self, grants: GrantSet) -> None:
        """Hand the named OoH features to this host's guest hypervisor
        (tenants on one host accumulate into a shared grant table)."""
        if self.machine.ooh is None:
            self.machine.ooh = GrantTable(grants, self.machine.metrics)
        else:
            self.machine.ooh.install(grants)

    def _vm_name(self, spec: TenantSpec) -> str:
        return f"{self.name}/{spec.name}"

    def _admit_virtio(self, spec: TenantSpec) -> Tenant:
        """L1 VM with a host-provided paravirtual NIC."""
        vm = self.l0.create_vm(self._vm_name(spec), spec.memory_gb * GB)
        vm.add_vcpu(self.machine.cpus[0], None)
        dev = VirtioDevice(
            f"{self._vm_name(spec)}-net",
            kind="net",
            num_queues=2,
            provider_level=0,
        )
        vm.bus.plug(dev)
        add_migration_capability(dev)
        HostVhost(self.l0, dev, user_vm=vm, flow=self._vm_name(spec)).start()
        return Tenant(spec=spec, host=self.name, vm=vm, devices=[dev])

    def _nested_vm(self, spec: TenantSpec):
        """A nested (L2) VM under the host's guest hypervisor, its vCPU
        chained through an L1 system-stack vCPU on the same pCPU."""
        ghv = self.guest_hypervisor
        if ghv is None:
            raise ValueError(
                f"{self.name}: nested tenants need a >=2-level host stack"
            )
        vm = ghv.create_vm(self._vm_name(spec), spec.memory_gb * GB)
        parent = self.stack.vms[0].vcpus[len(self.tenants) % self._workers]
        vm.add_vcpu(parent.pcpu, parent)
        return vm

    def _admit_vp(self, spec: TenantSpec) -> Tenant:
        """Nested VM driving an L0 device via DVH virtual-passthrough."""
        vm = self._nested_vm(spec)
        dev = VirtioDevice(
            f"{self._vm_name(spec)}-net-vp",
            kind="net",
            num_queues=2,
            provider_level=0,
        )
        vm.bus.plug(dev)
        add_migration_capability(dev)
        assignment = assign_virtual_device(self.machine, dev, vm)
        HostVhost(
            self.l0,
            dev,
            user_vm=vm,
            flow=self._vm_name(spec),
            translate=assignment.translate,
        ).start()
        return Tenant(spec=spec, host=self.name, vm=vm, devices=[dev])

    def _admit_passthrough(self, spec: TenantSpec) -> Tenant:
        """Nested VM with a real SR-IOV VF — fast, but hardware-coupled."""
        vm = self._nested_vm(spec)
        vf = self.machine.nic.create_vf()
        pfns = dma_pool_pfns()
        populate_chain_epts(vm, pfns)
        self.machine.bus.plug(vf)
        assign_physical_device(self.machine, vf, vm, pfns)
        return Tenant(spec=spec, host=self.name, vm=vm, devices=[])

    def evict(self, name: str) -> Tenant:
        """Remove a tenant from this host's books (its source-side VM
        stops being charged against capacity; the sim objects go idle).
        The NIC flow is unregistered so stray packets drop, like a real
        host tearing down a tap device."""
        tenant = self.tenants.pop(name)
        self.machine.nic.unregister_flow(self._vm_name(tenant.spec))
        return tenant

    def adopt(self, tenant: Tenant) -> Tenant:
        """Re-home a migrated-in tenant: rebuild its VM and device
        plumbing on this host's stack (the destination side of a live
        migration) and account for its memory."""
        if not self.fits(tenant.spec):
            raise ValueError(
                f"{self.name}: cannot adopt {tenant.name}, "
                f"{self.mem_free // GB} GB free"
            )
        fresh = self.admit(tenant.spec)
        fresh.migrations = tenant.migrations + 1
        return fresh

    def describe(self) -> str:
        names = ",".join(sorted(self.tenants)) or "-"
        return (
            f"{self.name}: {len(self.tenants)} tenants "
            f"[{names}] mem {self.mem_committed // GB}/"
            f"{self.mem_total // GB} GB load {self.cycle_load}"
        )
