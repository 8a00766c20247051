"""Exit counters and cycle attribution.

Every simulated machine owns one :class:`Metrics` object.  Hypervisor and
hardware code report exits, forwards, interrupts, and cycle charges here;
tests assert invariants on the counts (e.g. "a DVH virtual-timer program
from an L2 guest causes exactly one L0 exit and zero guest-hypervisor
interventions") and the benchmark harness uses them for the Figure-8-style
breakdowns.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from repro.metrics.hist import bucket_index

__all__ = ["Metrics"]


class Metrics:
    """Counters for one simulation run."""

    #: Every counter table, in snapshot order.  ``snapshot``/``diff``/
    #: ``copy`` iterate this registry, so adding a table means adding it
    #: here (and ``test_metrics_tables`` fails if the registry and the
    #: instance attributes drift apart).
    _TABLES = (
        "exits",
        "forwards",
        "l0_handled",
        "dvh_handled",
        "interrupts",
        "cycles",
        "events",
        "faults",
        "recoveries",
        "cross_host",
        "latency",
        "latency_sum",
        "ooh",
    )

    def __init__(self) -> None:
        #: (from_level, reason_name) -> number of hardware exits to L0.
        self.exits: Counter = Counter()
        #: (from_level, reason_name, owner_level) -> exits forwarded to a
        #: guest hypervisor at ``owner_level``.
        self.forwards: Counter = Counter()
        #: reason_name -> exits handled directly by L0 (incl. DVH).
        self.l0_handled: Counter = Counter()
        #: reason_name -> exits handled by a DVH mechanism specifically.
        self.dvh_handled: Counter = Counter()
        #: (vector_kind, mode) -> interrupt deliveries
        #: (mode is "posted" or "injected").
        self.interrupts: Counter = Counter()
        #: category -> cycles charged (e.g. "hw_switch", "l0_emul",
        #: "ghv_handler", "guest_work", "vhost").
        self.cycles: Counter = Counter()
        #: free-form event counts (packets, transactions, migrations...).
        self.events: Counter = Counter()
        #: fault class -> injected faults (see repro.faults).
        self.faults: Counter = Counter()
        #: recovery kind -> successful recoveries (migration retries,
        #: virtio requeues, malformed-descriptor drops, DVH fallbacks...).
        self.recoveries: Counter = Counter()
        #: (src_host, dst_host, kind) -> bytes carried over the datacenter
        #: fabric (see repro.cluster.fabric); empty on single-machine runs.
        self.cross_host: Counter = Counter()
        #: (series, bucket_index) -> request count: the log-spaced
        #: latency histograms (see repro.metrics.hist).  Keyed per
        #: series (workload name, tenant name), integer counts only —
        #: so fast-forward fingerprints and ``apply_scaled`` cover them
        #: exactly, and per-host tables merge losslessly.
        self.latency: Counter = Counter()
        #: series -> exact integer sum of recorded latencies (cycles),
        #: so histogram means are byte-identical to raw-list means.
        self.latency_sum: Counter = Counter()
        #: (feature, "granted"|"forwarded") -> exits (or dirty-page
        #: batches) attributed to an OoH feature grant (see repro.ooh).
        self.ooh: Counter = Counter()
        #: Fast-forward float-charge log (see :meth:`ff_record`): None
        #: when off, else the (category, cycles) additions whose order
        #: matters for bit-exact replay.
        self._ff_log = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_exit(self, from_level: int, reason: str, count: int = 1) -> None:
        self.exits[(from_level, reason)] += count

    def record_forward(
        self, from_level: int, reason: str, owner_level: int, count: int = 1
    ) -> None:
        self.forwards[(from_level, reason, owner_level)] += count

    def record_l0_handled(
        self, reason: str, dvh: bool = False, count: int = 1
    ) -> None:
        self.l0_handled[reason] += count
        if dvh:
            self.dvh_handled[reason] += count

    def record_interrupt(self, kind: str, mode: str) -> None:
        self.interrupts[(kind, mode)] += 1

    def charge(self, category: str, cycles: float) -> None:
        total = self.cycles[category] + cycles
        self.cycles[category] = total
        log = self._ff_log
        if log is not None and total.__class__ is float:
            # Float accumulation is order-sensitive (each += rounds);
            # keep every addend of a float total, integer-valued ones
            # too, so a macro-event can replay the category bit-for-bit.
            if len(log) < 65536:
                log.append((category, cycles))
            else:  # runaway log (source stopped observing): give up
                self._ff_log = None

    # ------------------------------------------------------------------
    # Fast-forward float-replay log
    # ------------------------------------------------------------------
    def ff_record(self) -> None:
        """(Re)start logging order-sensitive float charges.  Driven by
        :class:`repro.sim.fastforward.PeriodicSource` while a fingerprint
        is being confirmed; the log is drained at every epoch boundary
        by :meth:`ff_take_log`."""
        self._ff_log = []

    def ff_stop(self) -> None:
        self._ff_log = None

    def ff_take_log(self) -> Optional[tuple]:
        """Drain the float-charge log accumulated since the last take
        (or since :meth:`ff_record`).  Returns None when logging is off
        or was abandoned (overflow)."""
        log = self._ff_log
        if log is None:
            return None
        self._ff_log = []
        return tuple(log)

    def count(self, name: str, n: int = 1) -> None:
        self.events[name] += n

    def record_fault(self, kind: str, n: int = 1) -> None:
        """An injected (or detected) fault of class ``kind``."""
        self.faults[kind] += n

    def record_recovery(self, kind: str, n: int = 1) -> None:
        """A successful recovery action of class ``kind``."""
        self.recoveries[kind] += n

    def record_latency(self, series: str, cycles: int, n: int = 1) -> None:
        """``n`` requests on ``series`` observed ``cycles`` latency.

        The bucket count and the exact sum are both plain integer
        Counter growth, so this table needs no special treatment
        anywhere: snapshots, diffs, fingerprints, and macro-event
        scaling all handle it like any other counter.
        """
        self.latency[(series, bucket_index(cycles))] += n
        self.latency_sum[series] += cycles * n

    def record_ooh(self, feature: str, granted: bool, n: int = 1) -> None:
        """``n`` exits (or dirty-page batches) for an OoH-grantable
        ``feature``, split by whether the grant short-circuited them."""
        self.ooh[(feature, "granted" if granted else "forwarded")] += n

    def record_cross_host(
        self, src: str, dst: str, kind: str, nbytes: int
    ) -> None:
        """``nbytes`` of ``kind`` traffic carried src -> dst over the
        cluster fabric (kind is "migration", "net", or "control")."""
        self.cross_host[(src, dst, kind)] += nbytes

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def total_exits(self) -> int:
        """All hardware exits to L0."""
        return sum(self.exits.values())

    def exits_from_level(self, level: int) -> int:
        return sum(n for (lvl, _), n in self.exits.items() if lvl == level)

    def exits_for_reason(self, reason: str) -> int:
        return sum(n for (_, r), n in self.exits.items() if r == reason)

    def guest_hv_interventions(self) -> int:
        """Exits that had to be forwarded to any guest hypervisor — the
        quantity DVH is designed to eliminate (paper Section 3)."""
        return sum(self.forwards.values())

    def total_faults(self) -> int:
        return sum(self.faults.values())

    def cross_host_bytes(self, kind: Optional[str] = None) -> int:
        """Bytes carried over the fabric, optionally for one traffic kind."""
        return sum(
            n
            for (_s, _d, k), n in self.cross_host.items()
            if kind is None or k == kind
        )

    def total_recoveries(self) -> int:
        return sum(self.recoveries.values())

    def ooh_split(self, feature: Optional[str] = None) -> tuple:
        """``(granted, forwarded)`` totals for one OoH feature (or all)."""
        granted = forwarded = 0
        for (f, mode), n in self.ooh.items():
            if feature is not None and f != feature:
                continue
            if mode == "granted":
                granted += n
            else:
                forwarded += n
        return granted, forwarded

    def latency_series(self) -> list:
        """Sorted names of every series with recorded latencies."""
        return sorted({series for (series, _idx) in self.latency})

    def latency_histogram(self, series: str):
        """Rebuild the :class:`repro.metrics.hist.Histogram` for one
        series from the counter tables (exact counts and sum)."""
        from repro.metrics.hist import Histogram

        return Histogram.from_buckets(
            (
                (idx, n)
                for (name, idx), n in self.latency.items()
                if name == series
            ),
            total_sum=self.latency_sum.get(series, 0),
        )

    def snapshot(self) -> Dict[str, Dict]:
        """A plain-dict snapshot for reports."""
        return {table: dict(getattr(self, table)) for table in self._TABLES}

    def diff(self, earlier: "Metrics") -> "Metrics":
        """Counters accumulated since ``earlier`` (a copied snapshot).

        Only strictly positive deltas survive (Counter's unary ``+``):
        counters are monotonic, so a negative delta means ``earlier``
        is not actually an earlier snapshot of this object.
        """
        out = Metrics()
        for attr in self._TABLES:
            mine: Counter = getattr(self, attr)
            theirs: Counter = getattr(earlier, attr)
            result = Counter(mine)
            result.subtract(theirs)
            setattr(out, attr, +result)
        return out

    def copy(self) -> "Metrics":
        out = Metrics()
        for attr in self._TABLES:
            setattr(out, attr, Counter(getattr(self, attr)))
        return out

    def apply_scaled(
        self, delta: Dict[str, Dict], n: int, float_log: Optional[tuple] = None
    ) -> None:
        """Apply a per-epoch snapshot delta ``n`` times in one shot.

        This is the fast-forward macro-event accumulator: ``delta`` is the
        fingerprinted counter growth of one steady-state epoch (the
        ``{table: {key: growth}}`` shape produced by diffing two
        :meth:`snapshot` results), and applying it ``n``-fold must land on
        exactly the same counters ``n`` micro-stepped epochs would have.
        Integer growths are exact under scaling; cycle categories with
        order-sensitive float accumulation are replayed addition by
        addition from ``float_log`` (one epoch's :meth:`ff_take_log`
        output), so sums match bit-for-bit.
        """
        logged = {key for key, _ in float_log} if float_log else ()
        for table, entries in delta.items():
            counter: Counter = getattr(self, table)
            replay = logged if table == "cycles" else ()
            for key, grown in entries.items():
                if key in replay:
                    continue
                scaled = grown * n
                if scaled.__class__ is float:
                    # Float-typed but integer-valued growth (exact at
                    # counter magnitudes): repeated addition matches the
                    # micro path; multiplication might flip the type.
                    base = counter[key]
                    for _ in range(n):
                        base += grown
                    counter[key] = base
                else:
                    counter[key] += scaled
        if float_log:
            cycles = self.cycles
            for _ in range(n):
                for key, add in float_log:
                    cycles[key] += add
