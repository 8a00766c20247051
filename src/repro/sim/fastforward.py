"""Steady-state fast-forward: epoch-skipping macro-events.

The engine normally replays every micro-event of every epoch.  This
module detects steady state and collapses runs of identical epochs into
one *macro-event*: the clock jumps N periods and the fingerprinted
per-epoch :class:`Metrics` deltas are applied N times.  The contract is
strict equivalence — a run with fast-forward enabled produces
**byte-identical** metrics, digests, and final simulated time as a run
without it.

Two kinds of loop pay for that obligation and are the only sources:
the Table 3 microbenchmark loops (``micro:hypercall``,
``micro:devnotify``, ``micro:program-timer``) and the netperf RR round
trips behind Figure 7 (``rr:<app>``).  A new source must show a measured host-time saving
first (see ``docs/performance.md``).  The switch lives in one place:
:class:`~repro.sim.engine.Simulator`'s ``fast_forward`` argument, which
defaults to the ``REPRO_FAST_FORWARD`` environment variable (the CLI's
``--no-fast-forward`` sets it); off, it also stops every
:meth:`~repro.sim.engine.Simulator.run_ahead_limit` shortcut.

How a source earns a skip
-------------------------
A workload registers a :class:`PeriodicSource` and calls
:meth:`PeriodicSource.observe` at every epoch boundary (for example,
after each completed transaction).  The source walks a state machine:

1. **Cycle lock** — two consecutive inter-boundary periods must be
   equal.  Every source's steady state repeats with a cycle of one
   epoch, so the epoch is the unit of fingerprinting and skipping.
2. **Fingerprint** — with the cycle locked, the per-epoch deltas of the
   simulator's one attached :class:`~repro.metrics.counters.Metrics`
   (plus the caller-supplied ``extra`` observable, e.g. the transaction
   latency) must be identical for ``CONFIRM_BLOCKS`` consecutive
   epochs.
3. **Skip** — with a confirmed fingerprint, ``observe`` may collapse
   future epochs: it finds the window with :meth:`Simulator.ff_scan`,
   moves the clock and the mid-cycle sleepers forward with
   :meth:`Simulator.ff_shift`, and applies the fingerprint deltas
   scaled by the skip count.  The *last* epoch is always executed
   micro-step so terminal state (armed timers, final events) is
   re-established identically to the slow path.

One machine per simulator
-------------------------
A :class:`~repro.hw.machine.Machine` attaches its ``Metrics`` and its
veto (``Machine._ff_veto``) at construction, and a fleet host detaches
them when it shuts down.  Only a simulator with one live machine can
skip: while a second machine is attached (a fleet's hosts share one
clock), fast-forward holds neither machine's references, since only one
machine's deltas would be fingerprinted.  Once every machine has
detached, the next one to attach arms fast-forward again.

What blocks a skip
------------------
Skipping is refused — falling back to micro-stepping — whenever epoch
identity cannot be proven:

* the machine's **veto** holds: span tracing, an attached auditor, a
  fault injector, a chain tracker or a live migration observe mid-epoch
  state the macro-event would hide;
* a **perturbation** was signalled (:meth:`FastForward.perturb`, called
  when a live migration starts and ends): the generation counter bump
  invalidates every source's fingerprint;
* the **window** is too small: anything live on the event heap before
  ``now + (n + 1) * period`` (a NIC packet in flight, another process's
  delay, a *live* armed timer) bounds the jump — only cancelled
  :class:`~repro.sim.engine.TimerHandle` entries may be jumped over,
  and one stepped epoch that may re-arm a live entry runs before it;
* the simulator's **rng state** changed since the fingerprint was
  confirmed (a draw mid-epoch means epochs are not reproducible).

The module is self-contained on purpose: it imports nothing from the
engine, so the engine can own a :class:`FastForward` instance without an
import cycle.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

__all__ = ["FastForward", "PeriodicSource"]

#: Consecutive identical per-epoch metric deltas required to confirm
#: the fingerprint once the cycle is locked.
CONFIRM_BLOCKS = 2
#: Fingerprint mismatches (with a stable cycle) since the last reset
#: after which a source gives up until the next perturbation, so a
#: periodic-but-not-identical phase doesn't pay snapshot overhead
#: forever.
MAX_DELTA_FAILS = 16


def _snap_delta(prev: Dict[str, Dict], cur: Dict[str, Dict]) -> Dict[str, Dict]:
    """Per-table counter growth between two Metrics snapshots.

    Counters are monotonic, so keys only appear and values only grow;
    the delta keeps changed keys only.
    """
    out: Dict[str, Dict] = {}
    for table, cur_entries in cur.items():
        prev_entries = prev.get(table)
        if prev_entries is None:
            if cur_entries:
                out[table] = dict(cur_entries)
            continue
        delta = {}
        for key, value in cur_entries.items():
            grown = value - prev_entries.get(key, 0)
            if grown:
                delta[key] = grown
        if delta:
            out[table] = delta
    return out


class PeriodicSource:
    """One registered periodic activity (an epoch stream)."""

    __slots__ = (
        "ff",
        "name",
        "skipped_extras",
        "_generation",
        "_last_now",
        "_period",
        "_snap",
        "_delta",
        "_delta_streak",
        "_extra",
        "_profile",
        "_float_log",
        "_rng_state",
        "_delta_fails",
        "_disabled",
        "_veto_active",
        "detections",
        "epochs_skipped",
    )

    def __init__(self, ff: "FastForward", name: str) -> None:
        self.ff = ff
        self.name = name
        #: After a skip: the ``extra`` observables of the skipped epochs,
        #: in order, for the caller to replay its own bookkeeping.
        self.skipped_extras: List[Any] = []
        self._generation = ff.generation
        self.detections = 0
        self.epochs_skipped = 0
        self._reset()

    # ------------------------------------------------------------------
    def _reset(self) -> None:
        self._last_now: Optional[int] = None
        #: The previous inter-boundary period (cycle lock).
        self._period: Optional[int] = None
        self._unlock()
        self._delta_fails = 0
        self._disabled = False
        self._veto_active: Optional[str] = None

    def _unlock(self) -> None:
        self._drop_fingerprint()
        # Stop the float-charge log too — nobody will drain it until a
        # fingerprint is being confirmed again.
        if self.ff.metrics is not None:
            self.ff.metrics.ff_stop()

    def _drop_fingerprint(self) -> None:
        self._snap: Optional[Dict[str, Dict]] = None
        self._delta: Optional[Dict[str, Dict]] = None
        self._delta_streak = 0
        self._extra: Any = None
        self._profile: Any = None
        self._float_log: Any = None
        self._rng_state: Any = None

    # ------------------------------------------------------------------
    def observe(self, remaining: int, extra: Any = None) -> int:
        """Mark an epoch boundary; maybe skip ahead.

        ``remaining`` is the number of identical epochs still ahead of
        the caller; ``extra`` is any additional per-epoch observable the
        caller must be able to replay itself (e.g. the transaction
        latency it appends to a list) — it becomes part of the
        fingerprint.  Returns the number of epochs skipped (0 almost
        always; never more than ``remaining - 1``).  On a skip the clock
        has already advanced and the metric deltas are already applied:
        the caller replays its own bookkeeping from
        :attr:`skipped_extras`.
        """
        ff = self.ff
        if not ff.enabled:
            return 0
        ff.epochs_observed += 1
        if self._generation != ff.generation:
            # A perturbation (a live migration starting or ending) was
            # signalled since the last boundary: nothing observed before
            # it can be trusted.
            self._reset()
            self._generation = ff.generation
        metrics = ff.metrics
        if self._disabled or metrics is None:
            return 0
        sim = ff.sim
        now = sim.now
        last = self._last_now
        self._last_now = now
        if last is None:
            return 0

        # ---- 1. cycle lock: two equal consecutive periods ---------
        period = now - last
        if period <= 0 or period != self._period:
            self._period = period
            self._unlock()
            return 0

        # ---- vetoes (checked before paying for snapshots) ---------
        veto = ff.veto
        cause = veto() if veto is not None else None
        if cause:
            if cause != self._veto_active:
                self._veto_active = cause
                ff.invalidate(cause)
            self._drop_fingerprint()
            return 0
        self._veto_active = None

        # ---- 2. fingerprint ---------------------------------------
        carriers, window = sim.ff_scan(period)
        if carriers is None:
            # Runnable work at the boundary: not a quiescent point.
            self._drop_fingerprint()
            return 0
        # The heap profile joins the fingerprint: the mid-cycle sleepers
        # (cycle carriers) must sit at the same offsets every epoch, and
        # near-term *non*-carrier work (a live timer, a pending callable)
        # shows up as a window that blocks the skip below.
        profile = tuple(
            (entry[0] - now, entry[2].name) for entry in carriers
        )
        snap = metrics.snapshot()
        # None: logging was off, abandoned (overflow), or stolen by a
        # concurrent source — float replay can't be proven this epoch.
        log = metrics.ff_take_log()
        prev = self._snap
        self._snap = snap
        if log is None or prev is None:
            metrics.ff_record()
        if prev is None:
            self._extra = extra
            self._profile = profile
            self._float_log = None
            self._rng_state = sim.rng.getstate()
            return 0
        delta = _snap_delta(prev, snap)
        if (
            delta == self._delta
            and extra == self._extra
            and profile == self._profile
            and log is not None
            and log == self._float_log
        ):
            self._delta_streak += 1
        else:
            if self._delta is not None:
                self._delta_fails += 1
                if self._delta_fails > MAX_DELTA_FAILS:
                    # Periodic but never identical: stop paying for
                    # snapshots until the next perturbation resets us.
                    self._disabled = True
                    metrics.ff_stop()
                    ff.invalidate("unstable-delta")
                    return 0
            self._delta = delta
            self._delta_streak = 1
            self._extra = extra
            self._profile = profile
            self._float_log = log
            self._rng_state = sim.rng.getstate()
            return 0
        if self._delta_streak == CONFIRM_BLOCKS:
            self.detections += 1
            ff.detections += 1

        # ---- 3. skip ----------------------------------------------
        n = remaining - 1
        if self._delta_streak < CONFIRM_BLOCKS or n < 1:
            return 0
        rng_state = sim.rng.getstate()
        if rng_state != self._rng_state:
            ff.invalidate("rng")
            self._drop_fingerprint()
            self._snap = snap
            self._rng_state = rng_state
            return 0
        if window is not None:
            # The skip target must stay a whole epoch before the first
            # live non-carrier entry: it runs micro-step at its natural
            # time, after an epoch that may re-arm it (a safety timer
            # pushed out every transaction).
            n_window = (window - now - 1) // period - 1
            if n_window <= 0:
                ff.window_blocked += 1
                return 0
            if n_window < n:
                n = n_window
        sim.ff_shift(carriers, n * period)
        metrics.apply_scaled(self._delta, n, self._float_log)
        self._last_now = sim.now
        self._snap = metrics.snapshot()
        self.skipped_extras = [self._extra] * n
        self.epochs_skipped += n
        ff.epochs_skipped += n
        ff.macro_events += 1
        return n


class FastForward:
    """Per-simulator fast-forward manager: the attached machine's
    metrics and veto, sources, counters."""

    __slots__ = (
        "sim",
        "enabled",
        "generation",
        "metrics",
        "veto",
        "_live",
        "sources",
        "epochs_observed",
        "detections",
        "epochs_skipped",
        "macro_events",
        "window_blocked",
        "invalidations",
    )

    def __init__(self, sim, enabled: bool = True) -> None:
        self.sim = sim
        self.enabled = enabled
        #: Bumped by :meth:`perturb`; every source checks it at each
        #: boundary and drops its state when it moved.
        self.generation = 0
        #: The one attached :class:`Metrics` and its veto callback (see
        #: :meth:`attach`); None = no source may skip.
        self.metrics: Any = None
        self.veto: Optional[Callable[[], Optional[str]]] = None
        #: Machines attached and not detached since.
        self._live = 0
        self.sources: Dict[str, PeriodicSource] = {}
        self.epochs_observed = 0
        self.detections = 0
        self.epochs_skipped = 0
        self.macro_events = 0
        self.window_blocked = 0
        #: cause -> count of fingerprint invalidations / skip refusals.
        self.invalidations: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def attach(
        self, metrics, veto: Optional[Callable[[], Optional[str]]] = None
    ) -> None:
        """Fingerprint ``metrics`` (scaled on every skip) and refuse to
        skip while ``veto()`` returns a cause.  A machine attaches its
        own at construction.  An attach while another machine is live
        means several machines share this simulator: fast-forward drops
        both references, and no source skips until every machine has
        detached and one attaches alone again."""
        self._live += 1
        if self._live == 1:
            self.metrics, self.veto = metrics, veto
        else:
            self.metrics = self.veto = None

    def detach(self, metrics) -> None:
        """The machine that attached ``metrics`` is gone (its host shut
        down): release its references.  A remaining machine is not
        re-armed; only an attach onto an otherwise empty simulator is."""
        self._live -= 1
        if self.metrics is metrics:
            self.metrics = self.veto = None

    def source(self, name: str) -> PeriodicSource:
        """Get-or-create the named periodic source."""
        src = self.sources.get(name)
        if src is None:
            src = self.sources[name] = PeriodicSource(self, name)
        return src

    # ------------------------------------------------------------------
    def perturb(self, cause: str) -> None:
        """Something aperiodic happened (a live migration started or
        ended): invalidate every source's fingerprint."""
        self.generation += 1
        self.invalidate(cause)

    def invalidate(self, cause: str) -> None:
        self.invalidations[cause] = self.invalidations.get(cause, 0) + 1

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "ff_enabled": self.enabled,
            "ff_epochs_observed": self.epochs_observed,
            "ff_detections": self.detections,
            "ff_epochs_skipped": self.epochs_skipped,
            "ff_macro_events": self.macro_events,
            "ff_window_blocked": self.window_blocked,
            "ff_invalidations": dict(self.invalidations),
        }
