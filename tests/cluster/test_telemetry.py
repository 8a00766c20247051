"""The deterministic fleet latency model (cluster/telemetry.py)."""

from repro.cluster.host import TENANT_PASSTHROUGH, TENANT_VIRTIO, TENANT_VP
from repro.cluster.telemetry import (
    BROWNOUT_MULT,
    DEGRADED_MULT,
    tenant_request_cycles,
)


def test_io_model_ordering_holds_at_any_load():
    for load in (0, 4000, 11_000):
        v = tenant_request_cycles(TENANT_VIRTIO, "t", 1, load, 12_000)
        p = tenant_request_cycles(TENANT_VP, "t", 1, load, 12_000)
        pt = tenant_request_cycles(TENANT_PASSTHROUGH, "t", 1, load, 12_000)
        assert v > p > pt > 0


def test_contention_grows_with_load():
    idle = tenant_request_cycles(TENANT_VP, "t", 1, 0, 12_000)
    half = tenant_request_cycles(TENANT_VP, "t", 1, 6_000, 12_000)
    full = tenant_request_cycles(TENANT_VP, "t", 1, 12_000, 12_000)
    assert idle < half < full
    assert full > 3 * idle  # quadratic contention triples the base


def test_brownout_and_degradation_multipliers():
    base = tenant_request_cycles(TENANT_VP, "t", 7, 0, 12_000)
    mig = tenant_request_cycles(TENANT_VP, "t", 7, 0, 12_000, migrating=True)
    deg = tenant_request_cycles(TENANT_VP, "t", 7, 0, 12_000, degraded=True)
    # jitter is a hash of (name, tick), identical across the calls, so
    # the multipliers show through within the jitter-scaled remainder
    assert mig > (BROWNOUT_MULT - 1) * base
    assert deg > (DEGRADED_MULT - 1) * base


def test_jitter_is_pure_hash_no_rng():
    a = tenant_request_cycles(TENANT_VP, "t0", 3, 100, 12_000)
    b = tenant_request_cycles(TENANT_VP, "t0", 3, 100, 12_000)
    assert a == b
    assert a != tenant_request_cycles(TENANT_VP, "t0", 4, 100, 12_000)

