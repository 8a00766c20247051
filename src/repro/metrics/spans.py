"""Span-level cycle attribution over the exit-dispatch boundary.

A :class:`Span` covers exactly one dispatch of one hardware exit: it
opens when the :class:`repro.hv.dispatch.ExitContext` is created at the
trap site and closes when L0 re-enters the guest.  Exits taken *by a
guest hypervisor's handler* while a span is open become child spans —
the span tree of a chain is the paper's exit multiplication, cycle by
cycle.

The collector aggregates closed spans two ways:

* per *site* — ``(origin level, exit reason, handler)`` → cycles, the
  trace-derived form of the Table-3 breakdowns;
* per *category* — the same categories :class:`repro.metrics.Metrics`
  charges (``hw_switch``, ``l0_emul``, ``dvh_emul``, ``ghv_handler``,
  ``guest_work``), which :meth:`SpanCollector.reconcile` checks against
  the flat counters.

Span state lives entirely outside :class:`~repro.metrics.Metrics`:
snapshots, fuzz digests, and every simulation result are identical
whether tracing is on or off.  When tracing is off (the default —
``machine.spans is None``) no span objects are ever allocated.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "SpanCollector"]

#: Cycle categories dispatch charges; reconciliation always reports
#: these even when a run never touched one.
DISPATCH_CATEGORIES = (
    "hw_switch",
    "l0_emul",
    "dvh_emul",
    "ghv_handler",
    "guest_work",
)


class Span:
    """Cycles attributed to one dispatch of one exit."""

    __slots__ = (
        "chain_id",
        "level",
        "reason",
        "handler",
        "hops",
        "depth",
        "start",
        "end",
        "cycles",
        "children",
        "parent",
        "collector",
    )

    def __init__(
        self,
        chain_id: int,
        level: int,
        reason: str,
        depth: int,
        parent: Optional["Span"],
        start: int,
        collector: Optional["SpanCollector"] = None,
    ) -> None:
        self.chain_id = chain_id
        self.level = level
        self.reason = reason
        self.handler = ""
        self.hops = 0
        self.depth = depth
        self.start = start
        self.end: Optional[int] = None
        self.cycles: Dict[str, float] = {}
        self.children: List["Span"] = []
        self.parent = parent
        self.collector = collector

    # ------------------------------------------------------------------
    def add(self, category: str, cycles: float) -> None:
        self.cycles[category] = self.cycles.get(category, 0) + cycles
        if self.collector is not None:
            # Category totals accumulate live (not at close) so chains
            # still in flight at drain time reconcile too.
            self.collector.by_category[category] += cycles

    def total(self) -> float:
        """Cycles charged in this span alone (children excluded)."""
        return sum(self.cycles.values())

    def subtree_total(self) -> float:
        """Cycles of this span plus every descendant."""
        return self.total() + sum(c.subtree_total() for c in self.children)

    def subtree_size(self) -> int:
        return 1 + sum(c.subtree_size() for c in self.children)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span #{self.chain_id}.{self.depth} L{self.level} "
            f"{self.reason}->{self.handler or '?'} {self.total():,.0f}cy>"
        )


class SpanCollector:
    """Builds span trees and aggregates closed spans.

    ``max_chains`` bounds how many *root* spans (chains) are retained for
    tree rendering; aggregation is never truncated.
    """

    def __init__(self, sim, max_chains: int = 4096) -> None:
        self.sim = sim
        self.enabled = True
        self.max_chains = max_chains
        self.roots: List[Span] = []
        #: Chains whose trees were not retained (beyond ``max_chains``);
        #: their cycles still land in the aggregates.
        self.chains_evicted = 0
        self.spans_opened = 0
        self.spans_closed = 0
        #: (level, reason, handler) -> cycles (own cycles, not subtree).
        self.by_site: Counter = Counter()
        #: category -> cycles across every span, open or closed (fed
        #: live by :meth:`Span.add` so in-flight chains reconcile too).
        self.by_category: Counter = Counter()

    # ------------------------------------------------------------------
    # Lifecycle (called from the dispatch path)
    # ------------------------------------------------------------------
    def open(self, ectx: Any) -> Span:
        parent = ectx.parent.span if ectx.parent is not None else None
        span = Span(
            chain_id=ectx.chain_id,
            level=ectx.origin_level,
            reason=ectx.exit_.reason._value_,
            depth=ectx.depth,
            parent=parent,
            start=self.sim.now,
            collector=self,
        )
        if parent is not None:
            parent.children.append(span)
        elif len(self.roots) < self.max_chains:
            self.roots.append(span)
        else:
            self.chains_evicted += 1
        self.spans_opened += 1
        return span

    def close(self, ectx: Any) -> None:
        span = ectx.span
        span.end = self.sim.now
        span.handler = ectx.handler
        span.hops = ectx.hops
        self.spans_closed += 1
        self.by_site[(span.level, span.reason, span.handler)] += span.total()

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    def site_rows(self) -> List[Tuple[int, str, str, float]]:
        """(level, reason, handler, cycles) rows, most expensive first."""
        return sorted(
            ((lvl, reason, handler, cycles)
             for (lvl, reason, handler), cycles in self.by_site.items()),
            key=lambda row: (-row[3], row[0], row[1], row[2]),
        )

    def reconcile(self, metrics) -> List[Tuple[str, float, float, float]]:
        """Compare span-attributed cycles with the flat Metrics counters.

        Returns ``(category, span_cycles, metric_cycles, unattributed)``
        rows.  ``hw_switch`` and ``dvh_emul`` are charged only inside
        dispatch and reconcile exactly; ``l0_emul``, ``ghv_handler`` and
        ``guest_work`` also accrue on paths outside any dispatch (timer
        softirqs, posted-interrupt delivery from softirq context, backend
        worker loops), so their unattributed remainder is non-negative
        but not necessarily zero.
        """
        categories = sorted(set(self.by_category) | set(DISPATCH_CATEGORIES))
        rows = []
        for category in categories:
            span_cycles = self.by_category.get(category, 0)
            metric_cycles = metrics.cycles.get(category, 0)
            rows.append(
                (category, span_cycles, metric_cycles, metric_cycles - span_cycles)
            )
        return rows

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_chain(self, root: Span) -> str:
        lines = [
            f"chain #{root.chain_id}: {root.subtree_size()} spans, "
            f"{root.subtree_total():,.0f} cycles"
        ]

        def walk(span: Span, indent: int) -> None:
            breakdown = ", ".join(
                f"{cat}={cyc:,.0f}" for cat, cyc in sorted(span.cycles.items())
            )
            hops = f" hops={span.hops}" if span.hops else ""
            lines.append(
                f"{'  ' * indent}L{span.level} {span.reason} -> "
                f"{span.handler or '?'}{hops} [{breakdown}]"
            )
            for child in span.children:
                walk(child, indent + 1)

        walk(root, 1)
        return "\n".join(lines)

    def render_chains(self, last: Optional[int] = None) -> str:
        roots = self.roots if last is None else self.roots[-last:]
        out = [self.render_chain(root) for root in roots]
        if self.chains_evicted:
            out.append(f"({self.chains_evicted} chains not retained)")
        return "\n".join(out)
