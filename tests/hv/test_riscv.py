"""Tests for the RISC-V H-extension profile: HS-mode cost model,
hedeleg/hideleg trap delegation, and the cross-arch seams (profile/arch
combination validation, per-arch cost selection)."""

import dataclasses

import pytest

from repro.core.features import DvhFeatures
from repro.hv.profiles import HS_PROFILE, KVM_PROFILE, PROFILES
from repro.hv.stack import StackConfig, build_stack
from repro.sim import costs_for_arch, default_costs, riscv_costs
from repro.workloads.microbench import run_microbenchmark


def test_riscv_uses_riscv_cost_profile():
    stack = build_stack(StackConfig(levels=1, arch="riscv"))
    assert stack.machine.costs.hw_exit == riscv_costs().hw_exit
    assert stack.machine.costs.hw_exit < default_costs().hw_exit


def test_costs_for_arch_selects_and_rejects():
    assert costs_for_arch("x86").hw_exit == default_costs().hw_exit
    assert costs_for_arch("riscv").hw_exit == riscv_costs().hw_exit
    with pytest.raises(ValueError, match="unknown arch"):
        costs_for_arch("sparc")


def test_riscv_coerces_kvm_to_hs_profile():
    """The H-extension profile is RISC-V's only modeled guest
    hypervisor: the default ``guest_hv="kvm"`` resolves to ``hs``."""
    stack = build_stack(StackConfig(levels=2, arch="riscv"))
    assert stack.config.guest_hv == "hs"
    assert stack.hvs[1].profile is HS_PROFILE
    assert stack.hvs[0].profile is KVM_PROFILE  # host model stays KVM-like


def test_xen_on_riscv_rejected():
    with pytest.raises(ValueError, match="not modeled on riscv"):
        build_stack(StackConfig(levels=2, arch="riscv", guest_hv="xen"))


def test_hs_profile_requires_riscv():
    with pytest.raises(ValueError, match="requires arch='riscv'"):
        build_stack(StackConfig(levels=2, guest_hv="hs"))


def test_each_arch_changes_charged_cycles():
    """Regression for the unreachable-cost-model bug: the arch knob must
    actually select a different cost model end to end, so the same
    microbenchmark charges different cycles on each architecture."""
    results = {
        arch: run_microbenchmark(
            build_stack(StackConfig(levels=2, arch=arch)), "Hypercall", 10
        )
        for arch in ("x86", "arm", "riscv")
    }
    assert len(set(results.values())) == 3, results


def test_delegated_traps_counted_on_riscv():
    stack = build_stack(StackConfig(levels=2, arch="riscv"))
    run_microbenchmark(stack, "Hypercall", 10)
    metrics = stack.metrics
    # VMCALL is hedeleg-delegated in HS_PROFILE: hardware vectored it
    # straight to the guest hypervisor, and the exit still counts as a
    # forward (conservation invariant).
    assert metrics.events.get("delegated_traps", 0) > 0
    assert sum(metrics.forwards.values()) > 0


def test_delegation_cheaper_than_forwarding():
    """hedeleg/hideleg delegation must be measurably cheaper than
    software forwarding: same stack, same workload, delegations
    stripped from the profile => more cycles per op."""
    delegated = run_microbenchmark(
        build_stack(StackConfig(levels=2, arch="riscv")), "Hypercall", 10
    )
    stripped = dataclasses.replace(HS_PROFILE, delegated_reasons=frozenset())
    PROFILES["hs"] = stripped
    try:
        forwarded = run_microbenchmark(
            build_stack(StackConfig(levels=2, arch="riscv")), "Hypercall", 10
        )
    finally:
        PROFILES["hs"] = HS_PROFILE
    assert delegated < forwarded


def test_riscv_has_no_vmcs_shadowing():
    """The H-extension has no VMCS-shadowing equivalent; the knob is
    force-cleared like ARM's."""
    stack = build_stack(StackConfig(levels=2, arch="riscv", vmcs_shadowing=True))
    assert not stack.hvs[0].capability.vmcs_shadowing
    assert not stack.ctx(0).vmcs.controls.shadow_vmcs


def test_hs_op_counts_below_kvm():
    """HS-mode CSR swaps replace some explicit control-structure writes,
    so the per-exit op counts sit below the KVM profile's."""
    from repro.hw.ops import ExitReason

    for reason in (ExitReason.VMCALL, ExitReason.MMIO, ExitReason.HLT):
        assert sum(HS_PROFILE.reason_op_counts(reason)) < sum(
            KVM_PROFILE.reason_op_counts(reason)
        )


def test_dvh_vp_improves_riscv_nested_io():
    """DVH's I/O models are platform-agnostic (§3): virtual passthrough
    pays off on RISC-V exactly as on x86/ARM."""
    virtio = build_stack(StackConfig(levels=2, io_model="virtio", arch="riscv"))
    vp = build_stack(
        StackConfig(levels=2, io_model="vp", dvh=DvhFeatures.vp_only(), arch="riscv")
    )
    assert run_microbenchmark(vp, "DevNotify", 10) < run_microbenchmark(
        virtio, "DevNotify", 10
    ) / 2.5


def test_riscv_run_is_deterministic():
    def digest():
        stack = build_stack(StackConfig(levels=2, arch="riscv", seed=5))
        run_microbenchmark(stack, "Hypercall", 10)
        snap = stack.metrics.snapshot()
        return (stack.sim.now, sorted((str(k), v) for t in snap.values() for k, v in t.items()))

    assert digest() == digest()
