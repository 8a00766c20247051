"""Tests for the cost model's structural calibration facts."""

from repro.hv.profiles import KVM_PROFILE
from repro.sim import CostModel, default_costs


def test_defaults_construct():
    costs = default_costs()
    assert isinstance(costs, CostModel)


def test_l0_roundtrip_matches_table3_hypercall_scale():
    """A trivial exit to L0 must cost ~1.6K cycles (Table 3, Hypercall/VM)."""
    costs = default_costs()
    roundtrip = costs.l0_roundtrip(costs.emul_hypercall)
    assert 1_200 <= roundtrip <= 2_000


def test_forwarded_exit_structurally_expensive():
    """The guest-hypervisor handler's trapping op budget must make a
    forwarded exit >10x a direct one (Section 2, exit multiplication)."""
    costs = default_costs()
    direct = costs.l0_roundtrip(costs.emul_hypercall)
    trapped_ops = sum(KVM_PROFILE.default_op_counts)
    forwarded_floor = (
        trapped_ops * costs.l0_roundtrip(costs.emul_vmcs_access)
        + costs.l0_roundtrip(costs.emul_vmresume_merge)
        + costs.forward_state_save
    )
    assert forwarded_floor > 10 * direct


def test_scaled_returns_modified_copy():
    costs = default_costs()
    doubled = costs.scaled(hw_exit=costs.hw_exit * 2)
    assert doubled.hw_exit == 2 * costs.hw_exit
    assert costs.hw_exit == default_costs().hw_exit  # original untouched
    assert doubled.hw_entry == costs.hw_entry


def test_as_dict_covers_all_fields():
    costs = default_costs()
    d = costs.as_dict()
    assert d["hw_exit"] == costs.hw_exit
    assert len(d) == len(costs.__dataclass_fields__)


def test_all_costs_non_negative():
    for name, value in default_costs().as_dict().items():
        assert value >= 0, name
