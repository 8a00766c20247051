"""The declarative spec format: JSON loading, validation, errors."""

import json
import os
from dataclasses import replace

import pytest

from repro.cli import main
from repro.dc import BUILTIN_SPECS, DCSpec, SpecError, load_spec
from repro.dc.spec import SPEC_VERSION, load_document

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


# ----------------------------------------------------------------------
# Loader: JSON only
# ----------------------------------------------------------------------
def test_json_documents_pass_through():
    doc = load_document(json.dumps({"a": [1, 2], "b": {"c": 3}}))
    assert doc == {"a": [1, 2], "b": {"c": 3}}


def test_duplicate_keys_rejected():
    with pytest.raises(SpecError, match="duplicate key 'name'"):
        DCSpec.from_text('{"name": "a", "name": "b"}')
    with pytest.raises(SpecError, match="duplicate key 'racks'"):
        DCSpec.from_text('{"topology": {"racks": 1, "racks": 2}}')


# ----------------------------------------------------------------------
# DCSpec validation
# ----------------------------------------------------------------------
def test_builtin_specs_parse_and_describe():
    for name, data in BUILTIN_SPECS.items():
        spec = DCSpec.from_dict(data)
        assert spec.name == name
        assert spec.version == SPEC_VERSION
        assert spec.topology.num_hosts >= 6
        assert name in spec.describe()


@pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
def test_example_files_match_builtins(name):
    """examples/dc_<name>.json is the built-in spec, renamed."""
    from_file = DCSpec.load(os.path.join(EXAMPLES, f"dc_{name}.json"))
    assert from_file.name == f"{name}-file"
    assert from_file == replace(load_spec(name), name=from_file.name)


def test_minimal_spec_uses_defaults():
    spec = DCSpec.from_dict({"name": "tiny"})
    assert spec.topology.racks >= 1
    assert spec.control.policy == "bin-pack"
    assert not spec.control.upgrade.enabled


def test_unknown_top_level_key_rejected():
    with pytest.raises(SpecError, match="unknown key 'topologie'"):
        DCSpec.from_dict({"topologie": {"racks": 2}})


def test_unknown_section_key_rejected():
    with pytest.raises(SpecError, match="unknown key"):
        DCSpec.from_dict({"topology": {"rackz": 2}})


def test_wrong_version_rejected():
    with pytest.raises(SpecError, match="unsupported spec version"):
        DCSpec.from_dict({"version": SPEC_VERSION + 1})


def test_unknown_policy_rejected():
    with pytest.raises(SpecError):
        DCSpec.from_dict({"control": {"policy": "round-robin"}})


def test_unknown_io_model_in_mix_rejected():
    with pytest.raises(SpecError, match="unknown io model"):
        DCSpec.from_dict({"tenants": {"mix": {"scsi": 1}}})


def test_non_fabric_fault_kind_rejected():
    with pytest.raises(SpecError, match="not a fabric fault class"):
        DCSpec.from_dict({"faults": [{"kind": "vcpu_stall"}]})


def test_fabric_fault_window_accepted():
    spec = DCSpec.from_dict(
        {
            "faults": [
                {
                    "kind": "fabric_degrade",
                    "start_ms": 1.0,
                    "end_ms": 5.0,
                    "rate": 0.5,
                    "param": 4,
                }
            ]
        }
    )
    assert spec.faults[0].kind == "fabric_degrade"
    plan = spec.fault_plan(freq_hz=1e9)
    assert plan is not None and not plan.is_empty


def test_spec_document_must_be_mapping():
    with pytest.raises(SpecError):
        DCSpec.from_text("[1, 2]")
    with pytest.raises(SpecError, match="expected a mapping"):
        DCSpec.from_dict([1, 2])


def test_fault_window_must_end_after_start():
    with pytest.raises(SpecError, match="must be after start_ms"):
        DCSpec.from_dict(
            {"faults": [{"kind": "fabric_degrade", "start_ms": 5.0, "end_ms": 5.0}]}
        )


@pytest.mark.parametrize(
    "section",
    [
        {"control": {"rebalance": {"enabled": "false"}}},
        {"control": {"upgrade": {"enabled": "false"}}},
        {"slo": {"enabled": "false"}},
    ],
)
def test_enabled_flags_must_be_json_booleans(section):
    with pytest.raises(SpecError, match="must be true or false"):
        DCSpec.from_dict(section)


#: Malformed documents that once ended in a traceback, were silently
#: coerced, or were accepted unchecked.
MALFORMED = {
    "truncated": '{"name": "x",',
    "yaml-document": "name: tiny\n",
    "memory_gb-scalar": '{"tenants": {"memory_gb": 2}}',
    "load-strings": '{"tenants": {"load": ["a", "b"]}}',
    "flows-string": '{"traffic": {"flows": "x"}}',
    "oversubscription-string": '{"topology": {"oversubscription": "x"}}',
    "dirty_pages-float": '{"tenants": {"dirty_pages": [2.7]}}',
    "flows-bool": '{"traffic": {"flows": true}}',
    "threshold-string": '{"control": {"rebalance": {"threshold": "2"}}}',
    "name-number": '{"name": 5}',
    "fault-rate-negative": '{"faults": [{"kind": "fabric_degrade", "rate": -1}]}',
    "fault-count-negative": '{"faults": [{"kind": "fabric_degrade", "count": -3}]}',
    "fault-without-kind": '{"faults": [{"start_ms": 1.0}]}',
    "version-bool": '{"version": true}',
    "horizon-infinity": '{"horizon_ms": Infinity}',
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_values_rejected(text):
    with pytest.raises(SpecError):
        DCSpec.from_text(text)


@pytest.mark.parametrize("key", ["truncated", "memory_gb-scalar"])
def test_cli_reports_malformed_spec(tmp_path, capsys, key):
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED[key])
    assert main(["dc", "validate", "--spec", str(path)]) == 1
    assert capsys.readouterr().out.startswith("spec error: ")


def test_cli_reports_non_utf8_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(["dc", "validate", "--spec", str(path)]) == 1
    assert capsys.readouterr().out.startswith("spec error: ")


@pytest.mark.parametrize(
    "hosts, match",
    [({"guest_hv": "vmware"}, "guest_hv"), ({"stack_levels": 9}, "levels")],
)
def test_hosts_checked_against_stack_rules(hosts, match):
    with pytest.raises(SpecError, match=match):
        DCSpec.from_dict({"hosts": hosts})


# ----------------------------------------------------------------------
# The slo block
# ----------------------------------------------------------------------
def test_slo_defaults_disabled():
    spec = DCSpec.from_dict({"name": "tiny"})
    assert not spec.slo.enabled
    assert spec.slo.objective_ms("virtio") == spec.slo.objective_p99_ms


def test_slo_block_parses_with_per_model_objectives():
    spec = DCSpec.from_dict(
        {
            "slo": {
                "enabled": True,
                "sample_ms": 0.1,
                "objective_p99_ms": 0.2,
                "objectives": {"vp": 0.05},
                "gate_start_ms": 1.0,
                "gate_interval_ms": 0.5,
                "min_samples": 4,
            }
        }
    )
    assert spec.slo.enabled
    assert spec.slo.objective_ms("vp") == 0.05
    assert spec.slo.objective_ms("virtio") == 0.2  # falls back to default
    assert spec.slo.min_samples == 4


def test_slo_unknown_key_rejected():
    with pytest.raises(SpecError, match="unknown key"):
        DCSpec.from_dict({"slo": {"p99": 0.1}})


def test_slo_unknown_io_model_in_objectives_rejected():
    with pytest.raises(SpecError, match="unknown io model"):
        DCSpec.from_dict({"slo": {"objectives": {"scsi": 0.1}}})


def test_slo_nonpositive_objective_rejected():
    with pytest.raises(SpecError, match="must be positive"):
        DCSpec.from_dict({"slo": {"objectives": {"vp": 0}}})


def test_slo_enabled_requires_positive_cadences():
    with pytest.raises(SpecError, match="slo.sample_ms"):
        DCSpec.from_dict({"slo": {"enabled": True, "sample_ms": 0}})
    with pytest.raises(SpecError, match="slo.gate_interval_ms"):
        DCSpec.from_dict({"slo": {"enabled": True, "gate_interval_ms": 0}})
    with pytest.raises(SpecError, match="slo.objective_p99_ms"):
        DCSpec.from_dict({"slo": {"enabled": True, "objective_p99_ms": 0}})


def test_slo_objectives_must_be_mapping():
    with pytest.raises(SpecError, match="slo.objectives must be a mapping"):
        DCSpec.from_dict({"slo": {"objectives": [1, 2]}})


def test_json_spec_round_trips():
    spec = DCSpec.from_text(
        json.dumps(
            {
                "name": "jsonspec",
                "topology": {"racks": 3, "hosts_per_rack": 4, "spines": 2},
                "tenants": {"count": 2, "mix": {"vp": 1}},
            }
        )
    )
    assert spec.name == "jsonspec"
    assert spec.topology.num_hosts == 12
    assert spec.tenants.mix == {"vp": 1}
