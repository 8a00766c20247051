"""Traced mode: spans around calls into the simulator's layers.

Everything here works from outside ``repro``: class methods are wrapped
on the class (every caller sees the wrapper), and module functions are
rebound at every module that holds them (a function imported by name,
such as ``build_stack`` in ``repro.cluster.host``, does not see a patch
of its home module).  Generator methods -- the simulator's processes --
get one span per resumption, so a process body's host time lands on its
own layer instead of on the event loop that resumes it.  Processes
spawned from functions that are not wrapped are attributed to the module
that defines their generator.

A span has a name ``<module>:<qualname>`` (module relative to
``repro``), a start, an end and a parent.  Self time is span time minus
child-span time and is folded online per name, so the per-layer numbers
cover every span; the first ``SPAN_CAP`` spans are also kept in memory
and written out at the end.  Time in functions that are not wrapped
counts as self time of the nearest wrapped caller; :class:`Sampler`
measures how much time that moves between layers.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import signal
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Spans kept for the span file (about 22 bytes each); the fold always
#: covers every span.
SPAN_CAP = 500_000

#: CPU seconds between two samples of :class:`Sampler`.
SAMPLE_INTERVAL_S = 0.005

#: Modules whose classes get every public method wrapped, and the
#: classes in each.  Small per-call helpers (ExitContext.charge, Pte)
#: are left out: wrapping them would cost more than the work they do.
CLASS_LAYERS: Dict[str, Tuple[str, ...]] = {
    "repro.sim.fastforward": ("FastForward", "PeriodicSource"),
    "repro.hv.dispatch": ("ExitHandlerRegistry",),
    "repro.hv.kvm": ("KvmHypervisor",),
    "repro.hv.vm": ("VirtualMachine", "VCpu"),
    "repro.hv.stack": ("Stack",),
    "repro.hw.ept": ("PageTable",),
    "repro.hw.mem": ("MemorySpace", "DirtyLog"),
    "repro.core.migration": ("LiveMigration",),
    "repro.metrics.counters": ("Metrics",),
    "repro.cluster": ("Cluster",),
    "repro.cluster.host": ("ClusterHost", "Tenant"),
    "repro.cluster.orchestrator": ("Orchestrator", "FabricChannel"),
    "repro.dc.fleet": ("Datacenter",),
    "repro.dc.controlplane": ("ControlPlane",),
}

#: Module functions wrapped at every module that binds them.
FUNCTION_LAYERS: Dict[str, Tuple[str, ...]] = {
    "repro.hv.stack": ("build_stack",),
    "repro.hw.ept": ("compose",),
    "repro.hv.passthrough": (
        "resolve_through_chain", "resolve_many_through_chain",
        "assign_physical_device", "dma_pool_pfns",
    ),
    "repro.workloads.microbench": ("run_microbenchmark",),
    "repro.workloads.apps": ("run_app",),
    "repro.study.harness": ("study_cell",),
    "repro.dc.runner": ("run_dc",),
}


def layer_of(module_name: str) -> str:
    """``repro.hw.ept`` -> ``hw.ept``; anything outside repro is kept."""
    return module_name[6:] if module_name.startswith("repro.") else module_name


class Tracer:
    """In-memory span recorder with an online self-time fold."""

    def __init__(self, cap: int = SPAN_CAP) -> None:
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.nesting_errors = 0
        self.cap = cap
        self.dropped = 0
        self._names: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.t0 = perf_counter()

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> list:
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        idx = len(self.span_start)
        start = perf_counter()
        if idx < self.cap:
            nid = self._names.get(name)
            if nid is None:
                nid = self._names[name] = len(self._names)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(start)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        frame = [name, start, 0.0, idx]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:
            self.nesting_errors += 1
            stack.remove(frame)
        duration = end - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        if stack:
            stack[-1][2] += duration
        if frame[3] >= 0:
            self.span_end[frame[3]] = end

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    # -- results ----------------------------------------------------------
    def fold_by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(":", 1)[0]] += s
        return dict(out)

    def self_of(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def calls_of(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def write(self, path: str) -> int:
        """Write kept spans as gzipped CSV (id,parent,name,start_us,end_us,
        times relative to the tracer's creation); returns the count."""
        names = {nid: name for name, nid in self._names.items()}
        t0 = self.t0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# spans kept={len(self.span_start)} dropped={self.dropped}\n")
            fh.write("id,parent,name,start_us,end_us\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i},{self.span_parent[i]},{names[self.span_name[i]]},"
                    f"{(self.span_start[i] - t0) * 1e6:.1f},"
                    f"{(self.span_end[i] - t0) * 1e6:.1f}\n"
                )
        return len(self.span_start)


class Sampler:
    """Cross-check of the span attribution, independent of the spans.

    A CPU-time timer interrupts the traced run every ``interval_s`` and
    compares the layer of the innermost ``repro`` frame on the Python
    stack with the layer of the innermost open span.  A sample where they
    differ is host time the fold gives to a wrapped caller because the
    code running was not wrapped.  Samples outside ``repro`` code (the
    benchmark's own loop, the collector) are not counted."""

    def __init__(self, tracer: Tracer, interval_s: float = SAMPLE_INTERVAL_S) -> None:
        self.tracer = tracer
        self.interval_s = interval_s
        #: (span layer, code layer) -> samples taken in repro code
        self.pairs: Dict[Tuple[str, str], int] = defaultdict(int)

    def _on_prof(self, _signum, frame) -> None:
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                stack = self.tracer._stack
                span = stack[-1][0].split(":", 1)[0] if stack else "hostbench"
                self.pairs[(span, layer_of(module))] += 1
                return
            frame = frame.f_back

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    @property
    def samples(self) -> int:
        return sum(self.pairs.values())

    def mismatches(self) -> List[Tuple[Tuple[str, str], int]]:
        """(span layer, code layer) pairs that differ, most samples first."""
        return sorted(((k, n) for k, n in self.pairs.items() if k[0] != k[1]),
                      key=lambda kn: -kn[1])

    def misattributed_share(self) -> float:
        total = self.samples
        return sum(n for _k, n in self.mismatches()) / total if total else 0.0


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def traced_generator(tracer: Tracer, name: str, gen, on_return=None):
    """Drive ``gen`` with one span per resumption; behaves like ``gen``
    under ``send``/``throw``/``close`` and returns its return value."""
    value = None
    pending = None
    while True:
        frame = tracer.open(name)
        try:
            if pending is not None:
                exc, pending = pending, None
                yielded = gen.throw(exc)
            else:
                yielded = gen.send(value)
        except StopIteration as stop:
            tracer.close(frame)
            if on_return is not None:
                on_return(stop.value)
            return stop.value
        except BaseException:
            tracer.close(frame)
            raise
        tracer.close(frame)
        try:
            value = yield yielded
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # re-raised inside gen on resume
            pending = exc
            value = None


_TRACED_CODE = traced_generator.__code__


def wrap(tracer: Tracer, name: str, fn: Callable, on_return=None) -> Callable:
    """A span-recording stand-in for ``fn`` (plain or generator)."""
    calls = tracer.calls
    if inspect.isgeneratorfunction(fn):
        def gen_wrapper(*args, **kwargs):
            calls[name] += 1
            return traced_generator(tracer, name, fn(*args, **kwargs), on_return)

        gen_wrapper.__wrapped__ = fn
        return gen_wrapper

    def wrapper(*args, **kwargs):
        calls[name] += 1
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if on_return is not None:
            on_return(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Instrumentation:
    """Installs and removes every wrapper of one traced run."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`uninstall`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, module_name: str, fn_name: str, make: Callable) -> None:
        """Replace ``module.fn`` by ``make(fn)`` in every loaded repro
        module that binds it."""
        fn = getattr(sys.modules[module_name], fn_name)
        wrapped = make(fn)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                    getattr(mod, fn_name, None) is fn:
                self.patch(mod, fn_name, wrapped)

    def install(self, hooks: Optional[Dict[str, Callable]] = None,
                counted: Optional[Dict[str, Callable]] = None) -> None:
        """Wrap every layer.  ``hooks`` maps span names to callbacks on
        the return value; ``counted`` maps span names to ``fn -> fn``
        decorators that count something around the call, inside its
        span."""
        hooks = hooks or {}
        counted = counted or {}

        def maker(name: str) -> Callable:
            def make(fn):
                inner = counted[name](fn) if name in counted else fn
                return wrap(self.tracer, name, inner, hooks.get(name))
            return make

        for module_name, classes in CLASS_LAYERS.items():
            module = importlib.import_module(module_name)
            for cls_name in classes:
                cls = getattr(module, cls_name)
                for attr, fn in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(fn):
                        continue
                    name = f"{layer_of(module_name)}:{cls_name}.{attr}"
                    self.patch(cls, attr, maker(name)(fn))
        for module_name, fns in FUNCTION_LAYERS.items():
            importlib.import_module(module_name)
            for fn_name in fns:
                self.rebind(module_name, fn_name, maker(f"{layer_of(module_name)}:{fn_name}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def process_layer(gen) -> str:
    """The layer a process generator belongs to: its defining module."""
    frame = getattr(gen, "gi_frame", None)
    if frame is not None:
        return layer_of(frame.f_globals.get("__name__", "?"))
    return "?"


def spawn_wrapper(tracer: Tracer, orig_spawn: Callable) -> Callable:
    """``Simulator.spawn`` that gives every untraced process its spans."""
    def spawn(self, gen, name: str = "proc"):
        code = getattr(gen, "gi_code", None)
        if code is not None and code is not _TRACED_CODE:
            gen = traced_generator(tracer, f"{process_layer(gen)}:process", gen)
        return orig_spawn(self, gen, name)

    spawn.__wrapped__ = orig_spawn
    return spawn
