"""Per-chain exit accounting for the faulted-run invariants.

The dispatch core threads a chain id through every exit a single guest
operation ultimately causes (see :class:`repro.hv.dispatch.ExitContext`).
The :class:`ChainTracker` hangs off ``machine.chain_tracker`` and hears
about every trap frame, letting :func:`repro.audit.checks.check_invariants`
tighten exit conservation from a machine-wide sum to **per-chain**
conservation: within one chain, every hardware exit must be either
handled by L0 or forwarded to exactly one guest hypervisor, with at most
one in-flight HLT as the only legal slack.  A bookkeeping bug that
merely *moves* an exit between chains — invisible to the aggregate
check — trips this one.

The tracker deliberately lives outside :class:`repro.metrics.Metrics`:
run digests hash the metrics snapshot, and attaching a tracker must not
change any run's digest.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from repro.hw.ops import ExitReason

__all__ = ["ChainTracker"]


class ChainTracker:
    """Counts exits / L0-handled / forwards per exit chain.

    Wired into the dispatch path by assignment to
    ``machine.chain_tracker``: :class:`~repro.hv.dispatch.ExitContext`
    calls :meth:`on_exit` at frame creation, the L0 dispatcher calls
    :meth:`on_l0_handled` / :meth:`on_forward` at resolution.
    """

    def __init__(self) -> None:
        self.exits: Counter = Counter()
        self.handled: Counter = Counter()
        self.forwards: Counter = Counter()
        #: HLT-only versions of the three, for slack attribution.
        self.hlt_exits: Counter = Counter()
        self.hlt_handled: Counter = Counter()
        self.hlt_forwards: Counter = Counter()
        #: chain id -> (origin level, root exit reason) of the root frame.
        self.roots: Dict[int, Tuple[int, str]] = {}
        #: Deepest frame depth seen per chain (exit multiplication).
        self.max_depth: Counter = Counter()

    # ------------------------------------------------------------------
    # Dispatch-side hooks
    # ------------------------------------------------------------------
    def on_exit(self, ectx) -> None:
        cid = ectx.chain_id
        self.exits[cid] += 1
        if ectx.depth == 0:
            self.roots[cid] = (ectx.origin_level, ectx.exit_.reason._value_)
        if ectx.depth > self.max_depth[cid]:
            self.max_depth[cid] = ectx.depth
        if ectx.exit_.reason is ExitReason.HLT:
            self.hlt_exits[cid] += 1

    def on_l0_handled(self, ectx) -> None:
        self.handled[ectx.chain_id] += 1
        if ectx.exit_.reason is ExitReason.HLT:
            self.hlt_handled[ectx.chain_id] += 1

    def on_forward(self, ectx, owner: int) -> None:
        self.forwards[ectx.chain_id] += 1
        if ectx.exit_.reason is ExitReason.HLT:
            self.hlt_forwards[ectx.chain_id] += 1

    # ------------------------------------------------------------------
    # Invariants and reporting
    # ------------------------------------------------------------------
    @property
    def chain_count(self) -> int:
        return len(self.exits)

    def chain_slack(self, cid: int) -> int:
        return self.exits[cid] - self.handled[cid] - self.forwards[cid]

    def violations(self) -> List[str]:
        """Per-chain exit conservation: every chain's exits fully resolve
        (handled or forwarded), except at most one in-flight HLT parked
        in L0's halt emulation at drain time."""
        out: List[str] = []
        for cid in sorted(self.exits):
            slack = self.chain_slack(cid)
            origin_level, reason = self.roots.get(cid, (-1, "?"))
            where = f"chain #{cid} (L{origin_level} {reason})"
            if not 0 <= slack <= 1:
                out.append(
                    f"chain conservation: {where}: {self.exits[cid]} exits != "
                    f"{self.handled[cid]} L0-handled + "
                    f"{self.forwards[cid]} forwarded (slack {slack})"
                )
                continue
            hlt_slack = (
                self.hlt_exits[cid] - self.hlt_handled[cid] - self.hlt_forwards[cid]
            )
            if slack != hlt_slack:
                out.append(
                    f"chain conservation: {where}: non-hlt imbalance "
                    f"(slack {slack}, hlt slack {hlt_slack})"
                )
        return out

    def summary(self) -> Dict[str, int]:
        return {
            "chains": self.chain_count,
            "exits": sum(self.exits.values()),
            "forwards": sum(self.forwards.values()),
            "max_depth": max(self.max_depth.values(), default=0),
        }
