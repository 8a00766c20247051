"""Regenerate Figure 8: incremental DVH breakdown on the nested VM.

The paper's attribution this harness must reproduce:

* virtual IPIs help Apache, MySQL, and Hackbench the most;
* virtual timers help netperf RR the most (and Apache/MySQL some);
* virtual idle helps netperf RR, in combination with the others;
* for memcached, once one technique is applied the rest add little.
"""

import pytest

from repro.bench import format_figure, run_figure
from repro.workloads.apps import app_names

STEPS = [
    "Nested VM",
    "Nested VM + DVH-VP",
    "+ posted interrupts",
    "+ virtual IPIs",
    "+ virtual timers",
    "+ virtual idle (= DVH)",
]


@pytest.mark.parametrize("app", app_names())
def test_fig8_row(benchmark, save_result, app):
    result = benchmark.pedantic(
        lambda: run_figure("8", apps=[app]), rounds=1, iterations=1
    )
    save_result(f"fig8_{app}", format_figure(result))
    row = result.overheads[app]
    series = [row[s] for s in STEPS]

    # Each increment can only help (monotone non-increasing within 5%).
    for before, after in zip(series, series[1:]):
        assert after <= before * 1.05

    if app in ("apache", "hackbench"):
        # Virtual IPIs give these workloads their biggest DVH step.
        assert row["+ virtual IPIs"] < row["+ posted interrupts"] * 0.93
    if app == "netperf_rr":
        # Virtual timers are the big step for netperf RR...
        assert row["+ virtual timers"] < row["+ virtual IPIs"] * 0.85
        # ...and virtual idle helps further in combination (§4).
        assert row["+ virtual idle (= DVH)"] < row["+ virtual timers"] * 0.95
