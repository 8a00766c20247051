"""Shipped against stepped: the one differential for run-ahead shortcuts.

Every shortcut that lets host work run ahead of the event heap asks
``Simulator.run_ahead_limit``: repeated L0 exits, migration dirtier
bursts and fabric transit hops (fast-forward epochs have their own
differential in ``tests/sim/test_fastforward.py``).  With fast-forward
off the limit allows none of them, so ``REPRO_FAST_FORWARD=0`` steps
every shortcut through the heap.  :func:`shipped_and_stepped` runs one
cell both ways; equal states mean that running ahead changed nothing
but host work.
"""

from repro.sim.engine import Simulator

#: The ``Simulator.stats()`` counters of work the shortcuts skipped.
RUN_AHEAD = ("exits_batched", "dirtier_bursts_merged", "transit_hops_ahead")


def shipped_and_stepped(monkeypatch, cell):
    """Run ``cell()`` with ``REPRO_FAST_FORWARD`` set to 1 (shipped) and
    to 0 (stepped), whatever the variable was before.  ``cell`` builds
    its own simulators, since the variable is read at construction, and
    returns only simulated state.  Returns ``(shipped, stepped, ahead)``:
    both states and the run-ahead counters of every simulator the
    shipped run built, summed.  The stepped run must have run nothing
    ahead."""
    out = []
    for value in ("1", "0"):
        sims = []
        with monkeypatch.context() as m:
            m.setenv("REPRO_FAST_FORWARD", value)
            init = Simulator.__init__

            def recording_init(self, *args, **kwargs):
                init(self, *args, **kwargs)
                sims.append(self)

            m.setattr(Simulator, "__init__", recording_init)
            state = cell()
        ahead = dict.fromkeys(RUN_AHEAD, 0)
        for sim in sims:
            stats = sim.stats()
            for key in RUN_AHEAD:
                ahead[key] += stats[key]
        out.append((state, ahead))
    (shipped, ahead), (stepped, none) = out
    assert not any(none.values()), none
    return shipped, stepped, ahead
