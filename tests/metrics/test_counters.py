"""Direct unit tests for the Metrics table registry (snapshot/diff/copy)."""

from collections import Counter

from repro.metrics import Metrics


def populated() -> Metrics:
    m = Metrics()
    m.record_exit(2, "vmcall")
    m.record_exit(2, "vmcall")
    m.record_exit(1, "hlt")
    m.record_forward(2, "vmcall", 1)
    m.record_l0_handled("hlt")
    m.record_l0_handled("apic_timer", dvh=True)
    m.record_interrupt("ipi", "posted")
    m.charge("l0_emul", 1200)
    m.charge("guest_work", 3.5)
    m.count("packets", 7)
    m.record_fault("nic_drop", 2)
    m.record_recovery("virtio_requeue")
    return m


def test_tables_registry_matches_instance_counters():
    """Every Counter attribute is in _TABLES and vice versa: the registry
    cannot silently drift from the instance layout."""
    m = Metrics()
    counter_attrs = {
        name for name, value in vars(m).items() if isinstance(value, Counter)
    }
    assert counter_attrs == set(Metrics._TABLES)
    # Snapshot covers exactly the registry, in registry order.
    assert list(m.snapshot().keys()) == list(Metrics._TABLES)


def test_snapshot_is_plain_and_detached():
    m = populated()
    snap = m.snapshot()
    assert snap["exits"][(2, "vmcall")] == 2
    assert snap["dvh_handled"] == {"apic_timer": 1}
    assert snap["cycles"]["guest_work"] == 3.5
    # Mutating the snapshot must not touch the metrics (and vice versa).
    snap["exits"][(2, "vmcall")] = 99
    assert m.exits[(2, "vmcall")] == 2
    m.record_exit(2, "vmcall")
    assert snap["events"]["packets"] == 7


def test_copy_covers_every_table_and_is_independent():
    m = populated()
    c = m.copy()
    assert c.snapshot() == m.snapshot()
    for table in Metrics._TABLES:
        assert getattr(c, table) is not getattr(m, table)
    m.charge("l0_emul", 1)
    m.record_fault("irq_drop")
    assert c.cycles["l0_emul"] == 1200
    assert c.faults["irq_drop"] == 0


def test_diff_returns_only_positive_deltas_across_all_tables():
    m = populated()
    before = m.copy()
    m.record_exit(3, "mmio")
    m.record_forward(3, "mmio", 2)
    m.charge("dvh_emul", 800)
    m.count("packets", 3)
    m.record_recovery("virtio_requeue", 2)
    d = m.diff(before)
    assert d.exits == Counter({(3, "mmio"): 1})
    assert d.forwards == Counter({(3, "mmio", 2): 1})
    assert d.cycles == Counter({"dvh_emul": 800})
    assert d.events == Counter({"packets": 3})
    assert d.recoveries == Counter({"virtio_requeue": 2})
    # Tables with no new activity diff to empty, not to zero-entries.
    assert d.l0_handled == Counter()
    assert d.faults == Counter()


def test_diff_of_identical_metrics_is_empty_everywhere():
    m = populated()
    d = m.diff(m.copy())
    for table in Metrics._TABLES:
        assert getattr(d, table) == Counter()


def test_query_helpers_agree_with_tables():
    m = populated()
    assert m.total_exits() == 3
    assert m.exits_from_level(2) == 2
    assert m.exits_for_reason("hlt") == 1
    assert m.guest_hv_interventions() == 1
    assert m.total_faults() == 2
    assert m.total_recoveries() == 1
