"""Regenerate Figure 9: application performance in an L3 VM.

The paper's qualitative results:

* three levels of paravirtual I/O are **practically unusable** — up to
  two orders of magnitude overhead;
* DVH is up to two orders of magnitude better than paravirtual I/O and
  can be >30x better than passthrough;
* only DVH keeps L3 performance near the (non-nested) VM case.
"""

import pytest

from repro.bench import format_figure, run_figure
from repro.workloads.apps import app_names


@pytest.mark.parametrize("app", app_names())
def test_fig9_row(benchmark, save_result, app):
    result = benchmark.pedantic(
        lambda: run_figure("9", apps=[app]), rounds=1, iterations=1
    )
    save_result(f"fig9_{app}", format_figure(result))
    row = result.overheads[app]
    vm = row["VM"]
    l3 = row["L3"]
    dvh = row["L3 + DVH"]

    if app in ("netperf_rr", "netperf_maerts", "apache", "memcached"):
        # Way beyond an order of magnitude for the I/O-heavy workloads.
        assert l3 > 20
        # DVH is one-to-two orders of magnitude better.
        assert l3 / dvh > 10
    # DVH keeps L3 close to the non-nested VM case (within ~2.5x of it;
    # the paper's bars land within ~1.5x for most workloads).
    assert dvh < vm + 1.5
    # DVH beats or matches passthrough except where passthrough is
    # already at native speed (bulk streaming).
    assert dvh < max(row["L3 + passthrough"], 1.0) * 1.5 + 0.1
