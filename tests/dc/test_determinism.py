"""Determinism properties: same spec + seed => byte-identical control
plane, regardless of quiescent hosts, fast-forward, or worker count."""

from repro.dc import load_spec, run_dc, run_sweep
from repro.dc.fleet import Datacenter

SMALL = load_spec("small")


def observables(dc, cycles=True):
    out = {
        "digest": dc.digest(),
        "trace": list(dc.events),
        "waves": [w.as_dict() for w in dc.control.waves],
        "admitted": list(dc.control.admitted),
    }
    if cycles:
        # The final clock reading is an observable too — except across
        # the quiescent flag, where eager boot backends legitimately
        # park events past the last control-plane action.
        out["cycles"] = dc.sim.now
    return out


def test_same_seed_same_bytes():
    a = observables(run_dc(SMALL, seed=3))
    b = observables(run_dc(SMALL, seed=3))
    assert a == b


def test_fleets_share_host_name_strings():
    """Reports kept from many runs must not each own a copy of every
    host name: fleets built from one spec hand out the same strings."""
    a = Datacenter(SMALL, seed=0)
    b = Datacenter(SMALL, seed=1)
    assert [h.name for h in a.hosts] == [h.name for h in b.hosts]
    assert all(x.name is y.name for x, y in zip(a.hosts, b.hosts))


def test_different_seeds_differ():
    a = run_dc(SMALL, seed=0).digest()
    b = run_dc(SMALL, seed=1).digest()
    assert a != b


def test_quiescent_and_eager_fleets_are_byte_identical():
    """The quiescent-host optimization must never change observables:
    only wall time and engine event counts may differ."""
    lazy = run_dc(SMALL, seed=1, quiescent=True)
    eager = run_dc(SMALL, seed=1, quiescent=False)
    assert observables(lazy, cycles=False) == observables(eager, cycles=False)
    # And it really is an optimization: the lazy fleet builds fewer stacks.
    assert sum(h.boots for h in lazy.hosts) < sum(h.boots for h in eager.hosts)


def test_fast_forward_on_and_off_are_byte_identical(monkeypatch):
    monkeypatch.setenv("REPRO_FAST_FORWARD", "1")
    on = run_dc(SMALL, seed=1)
    monkeypatch.setenv("REPRO_FAST_FORWARD", "0")
    off = run_dc(SMALL, seed=1)
    assert observables(on) == observables(off)


def test_sweep_serial_matches_parallel():
    serial = run_sweep(SMALL, seeds=range(3), jobs=1)
    parallel = run_sweep(SMALL, seeds=range(3), jobs=2)
    assert serial == parallel


def test_sweep_cells_quiescent_flag_is_observable_neutral():
    lazy = run_sweep(SMALL, seeds=[1], jobs=1, quiescent=True)
    eager = run_sweep(SMALL, seeds=[1], jobs=1, quiescent=False)
    assert lazy == eager
