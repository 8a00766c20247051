"""Per-tenant request-latency telemetry at fleet scale.

Cluster and datacenter tenants do not run full workload engines — a
200-host fleet with per-request simulation would defeat the quiescent
host design.  Instead the control plane *samples* each tenant's
request latency on a fixed cadence through one deterministic model,
and records the samples into the fabric's
:class:`~repro.metrics.Metrics` latency tables (the same integer
histogram spine the workload engines feed, see
:mod:`repro.metrics.hist`).

The model is where the paper's story meets fleet dynamics:

* the **io-model base cost** orders virtio > vp (DVH virtual
  passthrough) > passthrough — the Table-3 per-operation gap;
* **noisy neighbours**: contention grows quadratically as the host's
  admitted cycle load approaches its capacity, so a hot host drags
  every tenant's tail;
* **migration brownout**: a tenant being live-migrated pays a large
  multiplier (dirty-page tracking + switchover stalls);
* **fabric degradation**: an active fabric fault window inflates
  everyone's latency on the affected fleet.

Every term is integer arithmetic on integers, and the per-sample
jitter is a pure hash of (tenant, tick) — no RNG stream, no float
rounding — so the histograms are byte-identical across fast-forward
modes, ``--jobs`` fan-out, and re-runs.
"""

from __future__ import annotations

from zlib import crc32

from repro.cluster.host import TENANT_PASSTHROUGH, TENANT_VIRTIO, TENANT_VP

__all__ = [
    "BASE_CYCLES",
    "BROWNOUT_MULT",
    "DEGRADED_MULT",
    "tenant_request_cycles",
    "sample_host",
    "percentile_table",
]

#: Baseline request latency (cycles) per io model on an idle host.
#: The ordering is the paper's: virtio pays exit multiplication, DVH
#: virtual passthrough cuts most of it, physical passthrough is the
#: floor (but pins the host, §3.6).
BASE_CYCLES = {
    TENANT_VIRTIO: 46_000,
    TENANT_VP: 15_000,
    TENANT_PASSTHROUGH: 9_000,
}

#: Latency multiplier while the tenant is being live-migrated.
BROWNOUT_MULT = 8
#: Latency multiplier while a fabric fault window is active.
DEGRADED_MULT = 4


def tenant_request_cycles(
    io_model: str,
    name: str,
    tick: int,
    load: int,
    capacity: int,
    migrating: bool = False,
    degraded: bool = False,
) -> int:
    """One sampled request latency, in cycles (exact integer).

    ``load``/``capacity`` are the host's admitted cycle load and its
    admission ceiling; contention triples the base cost as the host
    fills (quadratic in utilization, integer-exact).
    """
    base = BASE_CYCLES[io_model]
    lat = base
    if capacity > 0 and load > 0:
        lat += 3 * base * load * load // (capacity * capacity)
    if migrating:
        lat *= BROWNOUT_MULT
    if degraded:
        lat *= DEGRADED_MULT
    # Deterministic per-sample jitter (up to ~+6%): a pure hash of the
    # (tenant, tick) pair, so it never consumes RNG state and never
    # depends on sampling order.
    mix = crc32(f"{name}:{tick}".encode())
    return lat + lat * (mix & 0xFF) // 4096


def sample_host(
    metrics,
    host,
    tick: int,
    migrating=(),
    degraded: bool = False,
) -> int:
    """Sample every tenant on ``host`` once into ``metrics`` (one
    latency table series per tenant).  Returns the sample count.
    Tenants are visited in sorted-name order so the recording order is
    a pure function of fleet state."""
    load = host.cycle_load
    capacity = host.load_capacity
    n = 0
    for name in sorted(host.tenants):
        tenant = host.tenants[name]
        metrics.record_latency(
            name,
            tenant_request_cycles(
                tenant.spec.io_model,
                name,
                tick,
                load,
                capacity,
                migrating=name in migrating,
                degraded=degraded,
            ),
        )
        n += 1
    return n


def percentile_table(metrics, io_model_of, objective_of=None):
    """Render the cumulative latency tables as the per-tenant
    cross_host-style percentile table the CLI prints.

    ``io_model_of(series)`` maps a series name to its io model (or "");
    ``objective_of(io_model)``, when given, maps it to the SLO objective
    in cycles and adds ``objective_cycles`` / ``violations`` columns.
    The dc control plane's ``tenant_percentiles`` is this table."""
    out = {}
    for series in metrics.latency_series():
        hist = metrics.latency_histogram(series)
        if not hist.total:
            continue
        io_model = io_model_of(series)
        row = {
            "io_model": io_model,
            "samples": hist.total,
            "mean_cycles": hist.sum // hist.total,
            "p50_cycles": hist.percentile(50.0),
            "p99_cycles": hist.percentile(99.0),
            "p999_cycles": hist.percentile(99.9),
        }
        if io_model and objective_of is not None:
            objective = objective_of(io_model)
            row["objective_cycles"] = objective
            row["violations"] = hist.count_above(objective)
        out[series] = row
    return out
