"""Host-performance regression benchmarks.

Unlike :mod:`benchmarks` proper (which measures *simulated* cycles),
this package measures how fast the simulator itself runs on the host:
``perf_engine.py`` times one case per mechanism (engine events, exits,
dirty writes, placements, bursts, fabric frames, stack builds, netperf
RR transactions) and ``--check`` floors each rate.  Its recorded run
lands in ``BENCH_engine.json`` at the repository root (``make
bench-perf`` regenerates it).  Speed claims are measured with
``hostbench/``, not here.
"""
