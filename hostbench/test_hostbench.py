"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest -q hostbench/test_hostbench.py
"""

from __future__ import annotations

import json
import os
import random
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cells  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A small slice of ``paper``: one Table 3 row and one Figure 7 app.
SLICE = ("table3/Hypercall/", "fig7/netperf_rr/")


def _benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def _paper_slice():
    return [c for c in cells.workload_cells("paper") if c.id.startswith(SLICE)]


def test_metric_names_are_well_formed_and_match_benchmark_json():
    bench = _benchmark_json()
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == layers.PER_LAYER
    for m in bench["per_layer"]:
        higher = m["name"] in layers.HIGHER_IS_BETTER
        assert m["better"] == ("higher" if higher else "lower"), m["name"]
    names = [n for n, _ in e2e + per_layer] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in bench["workloads"]] == list(cells.WORKLOADS)


def test_tampered_pinned_digest_counts_a_failed_cell():
    order = _paper_slice()
    expected = run.load_pinned("paper")
    rnd = run.run_round(order, run.SetupMeter())
    assert run.check_round("paper", rnd, expected) == []
    victim = order[0].id
    tampered = dict(expected, **{victim: "0" * 32})
    assert run.check_round("paper", rnd, tampered) == [victim]


def test_seed_permutation_leaves_paper_digests_unchanged():
    expected = run.load_pinned("paper")
    seen = []
    for seed in (0, 1):
        order = _paper_slice()
        random.Random(seed).shuffle(order)
        seen.append([c.id for c in order])
        rnd = run.run_round(order, run.SetupMeter())
        digests = cells.cell_digests("paper", rnd.payloads)
        assert digests == {i: expected[i] for i in digests}
        assert len(digests) == len(order)
    assert seen[0] != seen[1]


def test_layer_fold_sums_to_traced_wall():
    order = _paper_slice()
    expected = run.load_pinned("paper")
    probe = layers.LayerProbe()
    probe.install()
    try:
        with probe.sampler:
            start = run.perf_counter()
            rnd = run.run_round(order, run.SetupMeter(), tracer=probe.tracer)
            wall = run.perf_counter() - start
    finally:
        probe.uninstall()
    # Tracing must not change any simulated result.
    assert run.check_round("paper", rnd, expected) == []
    tracer = probe.tracer
    assert tracer.nesting_errors == 0 and tracer.open_spans == 0
    values = probe.metrics([], wall, wall)
    folded = sum(v for k, v in values.items() if k.startswith("fold."))
    assert abs(folded - wall) < layers.FOLD_TOLERANCE * wall
    assert values["trace.fold_error"] < layers.FOLD_TOLERANCE
    assert values["trace.unattributed_share"] < layers.UNATTRIBUTED_TOLERANCE
    assert probe.sampler.samples > 0
    assert 0.0 <= values["trace.misattributed_share"] < 1.0
    for layer in ("gc", "sim.engine", "hv.dispatch", "hv.vm", "hw.ept"):
        assert values[f"fold.{layer}.self_s"] > 0, layer
    assert values["hv.dispatch.exits"] > 0
    assert values["workloads.app.netperf_rr_s"] > 0
    assert set(values) == {name for name, _ in layers.PER_LAYER}



def test_held_out_fleet_seed_matches_its_pin():
    with open(run.PINNED) as fh:
        pinned = json.load(fh)["dc_fleet"][f"seed{cells.HELD_OUT_FLEET_SEED}"]
    assert cells.HELD_OUT_FLEET_SEED not in cells.sim_seeds("dc_fleet")
    rnd = run.run_round(cells.seed_cells("dc_fleet", cells.HELD_OUT_FLEET_SEED),
                        run.SetupMeter())
    assert run.check_round("dc_fleet", rnd, pinned) == []
