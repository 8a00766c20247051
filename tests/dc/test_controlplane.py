"""Control plane: admission, rebalancing, upgrade waves, pinned hosts."""

from repro.dc import DCSpec, load_spec, run_dc

SMALL = load_spec("small")


def run_small(seed=1, **kwargs):
    return run_dc(SMALL, seed=seed, **kwargs)


def test_admission_places_every_arrival():
    dc = run_small()
    control = dc.control
    assert len(control.admitted) == SMALL.tenants.count
    assert control.rejected == []
    assert sum(len(h.tenants) for h in dc.hosts) == SMALL.tenants.count
    for line in dc.events:
        if " admit " in line:
            assert "rejected" not in line


def test_admission_rejects_when_fleet_is_full():
    spec = DCSpec.from_dict(
        {
            "name": "full",
            "topology": {"racks": 1, "hosts_per_rack": 1, "spines": 1},
            "hosts": {"workers": 2},
            "tenants": {
                "count": 4,
                "start_ms": 0.5,
                "interval_ms": 0.5,
                "mix": {"virtio": 1},
                "memory_gb": [1],
                "load": [20000, 20000],
            },
            "horizon_ms": 5.0,
        }
    )
    dc = run_dc(spec, seed=0)
    control = dc.control
    # One 20k-load tenant fits under the 2-worker 24k ceiling; the rest
    # are refused by the load-headroom check, not by memory.
    assert len(control.admitted) == 1
    assert len(control.rejected) == 3
    assert any("rejected" in line for line in dc.events)


def test_upgrade_wave_reports_pinned_passthrough_hosts():
    dc = run_small(seed=1)
    control = dc.control
    waves = control.waves
    # Every host appears in exactly one wave.
    covered = [h for w in waves for h in w.hosts]
    assert sorted(covered) == sorted(h.name for h in dc.hosts)
    pinned = [(h, reason) for w in waves for (h, reason) in w.pinned]
    upgraded = [h for w in waves for h in w.upgraded]
    assert len(pinned) + len(upgraded) == len(dc.hosts)
    # The small mix always includes passthrough tenants: somebody pins.
    assert pinned, "expected at least one pinned host"
    for host_name, reason in pinned:
        assert reason == "passthrough"
        host = dc.host(host_name)
        specs = [t.spec.io_model for t in host.tenants.values()]
        assert "passthrough" in specs
    # Upgraded hosts were drained: any tenants they hold now arrived
    # after their wave (readmission is allowed).
    report = control.report()
    assert report["pinned_total"] == len(pinned)
    assert report["upgraded_total"] == len(upgraded)
    assert report["pinned_per_wave"] == [len(w.pinned) for w in waves]


def test_wave_trace_lines_report_fleet_metric():
    dc = run_small(seed=1)
    done_lines = [e for e in dc.events if " wave " in e and " done " in e]
    assert done_lines
    for line in done_lines:
        assert "pinned=" in line
        assert "migrations_ok=" in line
        assert "unsupported=" in line
    assert any("upgrade complete" in e for e in dc.events)


def test_rebalance_moves_hot_tenants():
    dc = run_small(seed=1)
    control = dc.control
    assert control.rebalance_ticks > 0
    assert control.rebalance_moves >= 1
    assert any("rebalance " in e for e in dc.events)


def test_quiescent_fleet_boots_only_touched_hosts():
    dc = run_small(seed=1)
    booted = sum(1 for h in dc.hosts if h.booted)
    assert booted < len(dc.hosts)
    # Untouched hosts never built a stack at all.
    assert any(h.boots == 0 for h in dc.hosts)


def test_no_control_sections_means_admission_only():
    spec = DCSpec.from_dict(
        {
            "name": "calm",
            "topology": {"racks": 1, "hosts_per_rack": 2, "spines": 1},
            "tenants": {
                "count": 2,
                "start_ms": 0.5,
                "interval_ms": 0.5,
                "mix": {"vp": 1},
                "memory_gb": [1],
            },
            "horizon_ms": 3.0,
        }
    )
    dc = run_dc(spec, seed=0)
    control = dc.control
    assert len(control.admitted) == 2
    assert control.waves == []
    assert control.rebalance_ticks == 0


def test_summary_includes_control_report_and_digest():
    dc = run_small(seed=1)
    summary = dc.summary()
    assert summary["control"]["admitted"] == SMALL.tenants.count
    assert len(summary["digest"]) == 64
    assert summary["hosts_total"] == SMALL.topology.racks * SMALL.topology.hosts_per_rack
    assert summary["fabric"]["trunk_bytes"] > 0
