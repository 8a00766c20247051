"""Per-layer metrics of a traced round, derived from spans and counters.

``PER_LAYER`` is the single list of per-layer metric names and units;
``BENCHMARK.json`` must list exactly these (the self-tests check it).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import repro.sim.engine as engine
from repro.workloads.apps import app_names

import spans

_EPT = "hw.ept:PageTable."
MAP_SPANS = tuple(_EPT + m for m in (
    "map", "map_if_absent", "map_many", "map_many_pairs", "map_many_if_absent"))
LOOKUP_SPANS = tuple(_EPT + m for m in (
    "lookup", "lookup_many", "translate", "translate_addr"))
DIRTY_SPANS = tuple(_EPT + m for m in (
    "write_protect_all", "dirty_pages", "clear_dirty", "unprotect"))
RESOLVE_SPANS = ("hv.passthrough:resolve_through_chain",
                 "hv.passthrough:resolve_many_through_chain")
WRITE_SPANS = ("hw.mem:MemorySpace.write_range", "hw.mem:MemorySpace.write")

#: Layers whose folded self time is reported as ``fold.<layer>.self_s``;
#: every other module's self time is summed into ``fold.other.self_s``.
FOLD_LAYERS = (
    "hostbench", "gc", "sim.engine", "sim.fastforward", "hv.dispatch", "hv.kvm",
    "hv.vm", "hv.stack", "hv.passthrough", "hw.ept", "hw.mem",
    "core.migration", "metrics.counters", "workloads.microbench",
    "workloads.apps", "workloads.engines", "cluster", "cluster.host",
    "cluster.orchestrator", "dc.fleet", "dc.controlplane", "study.harness",
)

PER_LAYER: List[Tuple[str, str]] = [
    ("sim.engine.events", "count"),
    ("sim.engine.run_self_s", "s"),
    ("sim.engine.inline_share", "ratio"),
    ("sim.fastforward.epochs_observed", "count"),
    ("sim.fastforward.epochs_skipped", "count"),
    ("sim.fastforward.skip_ratio", "ratio"),
    ("sim.fastforward.macro_events", "count"),
    ("sim.fastforward.invalidations", "count"),
    ("hv.dispatch.exits", "count"),
    ("hv.dispatch.route_self_s", "s"),
    ("hv.stack.builds", "count"),
    ("hv.stack.build_self_s", "s"),
    ("hw.ept.map_calls", "count"),
    ("hw.ept.pages_requested", "count"),
    ("hw.ept.pages_mapped", "count"),
    ("hw.ept.map_hit_ratio", "ratio"),
    ("hw.ept.map_self_s", "s"),
    ("hw.ept.lookup_self_s", "s"),
    ("hw.ept.dirty_self_s", "s"),
    ("hw.ept.pages_write_protected", "count"),
    ("hv.passthrough.resolve_self_s", "s"),
    ("hv.passthrough.pages_resolved", "count"),
    ("hw.mem.write_range_calls", "count"),
    ("hw.mem.write_self_s", "s"),
    ("core.migration.rounds", "count"),
    ("core.migration.bytes", "bytes"),
    ("core.migration.run_self_s", "s"),
    ("workloads.microbench_self_s", "s"),
] + [(f"workloads.app.{app}_s", "s") for app in app_names()] + [
    ("cluster.host.boots", "count"),
    ("cluster.host.boot_self_s", "s"),
    ("cluster.host.admit_self_s", "s"),
    ("dc.events", "count"),
    ("dc.rebalance_moves", "count"),
    ("dc.digest_self_s", "s"),
] + [(f"fold.{layer}.self_s", "s") for layer in FOLD_LAYERS] + [
    ("fold.other.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.fold_error", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.misattributed_share", "ratio"),
]

#: The folded self times must add up to the traced round's wall time,
#: measured around the whole round, within this share.
FOLD_TOLERANCE = 0.01

#: At most this share of the traced wall time may be self time of the
#: benchmark's own spans or of modules outside ``FOLD_LAYERS``.
UNATTRIBUTED_TOLERANCE = 0.05

#: Per-layer metrics where a larger value is the better one; for every
#: other one (host time, work done) smaller is better.
HIGHER_IS_BETTER = frozenset({
    "sim.engine.inline_share", "sim.fastforward.epochs_skipped",
    "sim.fastforward.skip_ratio", "sim.fastforward.macro_events",
    "hw.ept.map_hit_ratio",
})


class LayerProbe:
    """Tracing plus the counters the spans alone cannot give."""

    def __init__(self) -> None:
        self.tracer = spans.Tracer()
        self.inst = spans.Instrumentation(self.tracer)
        #: Run the traced round inside ``with probe.sampler:``.
        self.sampler = spans.Sampler(self.tracer)
        self.counts: Dict[str, float] = defaultdict(float)
        self.app_s: Dict[str, float] = defaultdict(float)

    # -- counting decorators (run inside the call's span) ---------------
    def _count_engine(self, fn) -> Callable:
        counts = self.counts

        def run(sim, *args, **kwargs):
            before = sim.stats()
            try:
                return fn(sim, *args, **kwargs)
            finally:
                after = sim.stats()
                for key in ("events_executed", "inline_hits", "ff_epochs_observed",
                            "ff_epochs_skipped", "ff_macro_events"):
                    counts[key] += after[key] - before[key]
                counts["ff_invalidations"] += (
                    sum(after["ff_invalidations"].values())
                    - sum(before["ff_invalidations"].values()))

        return run

    def _count_map(self, fn) -> Callable:
        counts = self.counts

        def map_many_if_absent(table, pfns, *args, **kwargs):
            pfns = pfns if isinstance(pfns, list) else list(pfns)
            added = fn(table, pfns, *args, **kwargs)
            counts["pages_requested"] += len(pfns)
            counts["pages_mapped"] += added
            return added

        return map_many_if_absent

    def _count_boot(self, fn) -> Callable:
        counts = self.counts

        def boot(host, *args, **kwargs):
            counts["boots"] += host.stack is None
            return fn(host, *args, **kwargs)

        return boot

    def _time_app(self, fn) -> Callable:
        app_s = self.app_s

        def run_app(stack, app, *args, **kwargs):
            start = spans.perf_counter()
            try:
                return fn(stack, app, *args, **kwargs)
            finally:
                app_s[app] += spans.perf_counter() - start

        return run_app

    def _add(self, key: str, amount) -> None:
        self.counts[key] += amount

    def _migration_done(self, result) -> None:
        self.counts["migration_rounds"] += result.rounds
        self.counts["migration_bytes"] += result.bytes_transferred

    # -- install / remove ------------------------------------------------
    def install(self) -> None:
        add = self._add
        hooks = {
            _EPT + "write_protect_all": lambda n: add("write_protected", n),
            "hv.passthrough:resolve_many_through_chain":
                lambda r: add("pages_resolved", len(r)),
            "hv.passthrough:resolve_through_chain":
                lambda r: add("pages_resolved", 1),
            "core.migration:LiveMigration.run": self._migration_done,
        }
        counted = {
            _EPT + "map_many_if_absent": self._count_map,
            "cluster.host:ClusterHost.boot": self._count_boot,
            "workloads.apps:run_app": self._time_app,
        }
        self.inst.install(hooks, counted)
        sim_cls = engine.Simulator
        self.inst.patch(sim_cls, "run", spans.wrap(
            self.tracer, "sim.engine:Simulator.run", self._count_engine(sim_cls.run)))
        self.inst.patch(sim_cls, "spawn", spans.spawn_wrapper(
            self.tracer, sim_cls.spawn))

    def uninstall(self) -> None:
        self.inst.uninstall()

    # -- results -----------------------------------------------------------
    def metrics(self, fleet_payloads: List[dict], traced_wall: float,
                untraced_wall: float) -> Dict[str, float]:
        """Per-layer metrics; the walls are measured around whole rounds."""
        t = self.tracer
        c = self.counts
        fold = t.fold_by_layer()
        events = c["events_executed"]
        observed, skipped = c["ff_epochs_observed"], c["ff_epochs_skipped"]
        folded = sum(fold.values())
        out = {
            "sim.engine.events": events,
            "sim.engine.run_self_s": t.self_of("sim.engine:Simulator.run"),
            "sim.engine.inline_share": c["inline_hits"] / events if events else 0.0,
            "sim.fastforward.epochs_observed": observed,
            "sim.fastforward.epochs_skipped": skipped,
            "sim.fastforward.skip_ratio": (
                skipped / (observed + skipped) if observed + skipped else 0.0),
            "sim.fastforward.macro_events": c["ff_macro_events"],
            "sim.fastforward.invalidations": c["ff_invalidations"],
            "hv.dispatch.exits": t.calls_of("hv.dispatch:ExitHandlerRegistry.route"),
            "hv.dispatch.route_self_s": t.self_of("hv.dispatch:ExitHandlerRegistry.route"),
            "hv.stack.builds": t.calls_of("hv.stack:build_stack"),
            "hv.stack.build_self_s": t.self_of("hv.stack:build_stack"),
            "hw.ept.map_calls": t.calls_of(*MAP_SPANS),
            "hw.ept.pages_requested": c["pages_requested"],
            "hw.ept.pages_mapped": c["pages_mapped"],
            "hw.ept.map_hit_ratio": (
                c["pages_mapped"] / c["pages_requested"] if c["pages_requested"] else 0.0),
            "hw.ept.map_self_s": t.self_of(*MAP_SPANS),
            "hw.ept.lookup_self_s": t.self_of(*LOOKUP_SPANS),
            "hw.ept.dirty_self_s": t.self_of(*DIRTY_SPANS),
            "hw.ept.pages_write_protected": c["write_protected"],
            "hv.passthrough.resolve_self_s": t.self_of(*RESOLVE_SPANS),
            "hv.passthrough.pages_resolved": c["pages_resolved"],
            "hw.mem.write_range_calls": t.calls_of(WRITE_SPANS[0]),
            "hw.mem.write_self_s": t.self_of(*WRITE_SPANS),
            "core.migration.rounds": c["migration_rounds"],
            "core.migration.bytes": c["migration_bytes"],
            "core.migration.run_self_s": t.self_of("core.migration:LiveMigration.run"),
            "workloads.microbench_self_s": fold.get("workloads.microbench", 0.0),
        }
        for app in app_names():
            out[f"workloads.app.{app}_s"] = self.app_s.get(app, 0.0)
        out.update({
            "cluster.host.boots": c["boots"],
            "cluster.host.boot_self_s": t.self_of("cluster.host:ClusterHost.boot"),
            "cluster.host.admit_self_s": t.self_of("cluster.host:ClusterHost.admit"),
            "dc.events": sum(p["events"] for p in fleet_payloads),
            "dc.rebalance_moves": sum(
                p["control"]["rebalance_moves"] for p in fleet_payloads),
            "dc.digest_self_s": t.self_of("dc.fleet:Datacenter.digest"),
        })
        for layer in FOLD_LAYERS:
            out[f"fold.{layer}.self_s"] = fold.get(layer, 0.0)
        out["fold.other.self_s"] = sum(
            s for layer, s in fold.items() if layer not in FOLD_LAYERS)
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.fold_error"] = abs(folded - traced_wall) / traced_wall
        out["trace.unattributed_share"] = (
            fold.get("hostbench", 0.0) + out["fold.other.self_s"]) / traced_wall
        out["trace.misattributed_share"] = self.sampler.misattributed_share()
        return out
