"""Which functions in ``src/repro`` does no CLI result path call?

Runs a fixed list of ``python -m repro`` invocations in this process
under a ``sys.setprofile`` hook, records every code object that was
entered, and lists the functions and methods of ``src/repro`` that none
of the paths entered.  The profiler is on while ``repro`` is imported,
so import-time registrations count as reached.

The result is an upper bound on dead code, not a verdict: error paths,
flags no path passes, ``__repr__`` helpers and code reached only from
``benchmarks/`` or ``examples/`` show up as unreached.  The tool reports
and never fails (exit status 0 unless it cannot run at all).

    PYTHONPATH=src python tools/reachability.py            # full report
    PYTHONPATH=src python tools/reachability.py --summary  # per-file counts
    make reach
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import time
from collections import defaultdict
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

#: The CLI result paths: every subcommand's headline output, small
#: enough that the whole profiled pass takes a few minutes.
PATHS: Tuple[Tuple[str, ...], ...] = (
    ("table3",),
    ("figure", "7"),
    ("figure", "8", "--scale", "0.5"),
    ("figure", "9", "--scale", "0.1"),
    ("figure", "10", "--scale", "0.5"),
    ("migration",),
    ("micro", "Hypercall", "--levels", "2"),
    ("micro", "DevNotify", "--levels", "3", "--io", "vp", "--dvh", "full"),
    ("micro", "SendIPI", "--levels", "2", "--arch", "arm"),
    ("micro", "ProgramTimer", "--levels", "2", "--arch", "riscv", "--guest-hv", "hs"),
    ("micro", "Hypercall", "--levels", "2", "--guest-hv", "xen", "--slo"),
    ("trace", "--chains", "3"),
    ("analyze", "netperf_rr", "--scale", "0.2"),
    ("app", "netperf_rr", "--levels", "2", "--io", "vp", "--dvh", "full", "--report"),
    ("app", "memcached", "--levels", "2", "--scale", "0.2", "--arrival", "poisson",
     "--offered", "20000", "--slo"),
    ("faults", "plan", "--report"),
    ("faults", "fuzz", "--episodes", "5"),
    ("cluster", "demo"),
    ("cluster", "demo", "--slo", "--audit"),
    ("cluster", "demo", "--faults", "fabric_partition", "fabric_degrade", "--json"),
    ("cluster", "migrate", "--io", "vp"),
    ("cluster", "migrate", "--io", "passthrough", "--json"),
    ("cluster", "sweep"),
    ("dc", "demo"),
    ("dc", "run", "--spec", "small", "--json"),
    ("dc", "sweep", "--seeds", "2", "--spec", "small"),
    ("slo",),
    ("study", "--spec", os.path.join(ROOT, "examples", "study_smoke.json")),
    ("audit", "--episodes", "5"),
    ("scenarios", "gen", "--count", "5"),
    ("scenarios", "run", "--count", "10", "--audit"),
    ("scenarios", "shrink", "--count", "3"),
)


def defined_functions() -> Dict[Tuple[str, int], Tuple[str, int, int]]:
    """``(file, first line) -> (qualname, first line, last line)`` for
    every ``def`` under ``src/repro``.  The first line is the first
    decorator's, which is what a code object reports."""
    out: Dict[Tuple[str, int], Tuple[str, int, int]] = {}
    for dirpath, _, files in os.walk(SRC):
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)

            def visit(node, prefix: str) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        first = min(
                            [child.lineno] + [d.lineno for d in child.decorator_list]
                        )
                        name = f"{prefix}{child.name}"
                        out[(path, first)] = (name, first, child.end_lineno)
                        visit(child, f"{name}.<locals>.")
                    elif isinstance(child, ast.ClassDef):
                        visit(child, f"{prefix}{child.name}.")
                    else:
                        visit(child, prefix)

            visit(tree, "")
    return out


def run_paths(paths) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run every path under the profiler; return the entered code
    objects and one status line per path."""
    entered: Set[Tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    status: List[str] = []
    sys.setprofile(profile)
    try:
        from repro.cli import main

        for argv in paths:
            t0 = time.perf_counter()
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crashing path is reported, not fatal
                rc = f"crashed: {type(exc).__name__}: {exc}"
            status.append(
                f"  {time.perf_counter() - t0:7.1f}s  rc={rc}  repro {' '.join(argv)}"
            )
    finally:
        sys.setprofile(None)
    return entered, status


def merged_lines(spans: List[Tuple[int, int]]) -> int:
    """Lines covered by possibly nested ``(first, last)`` spans."""
    total, end = 0, 0
    for first, last in sorted(spans):
        if last <= end:
            continue
        total += last - max(first, end + 1) + 1
        end = last
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--summary", action="store_true", help="per-file counts only"
    )
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.setdefault("REPRO_FAST_FORWARD", "1")
    functions = defined_functions()
    entered, status = run_paths(PATHS)
    entered = {(os.path.realpath(path), first) for path, first in entered}
    unreached: Dict[str, List[Tuple[str, int, int]]] = defaultdict(list)
    for (path, first), info in functions.items():
        if (os.path.realpath(path), first) not in entered:
            unreached[path].append(info)

    print(f"CLI paths ({len(PATHS)}):")
    print("\n".join(status))
    print()
    count = sum(len(v) for v in unreached.values())
    lines = 0
    for path in sorted(unreached):
        rows = sorted(unreached[path], key=lambda r: r[1])
        file_lines = merged_lines([(r[1], r[2]) for r in rows])
        lines += file_lines
        rel = os.path.relpath(path, os.path.join(ROOT, "src"))
        print(f"{rel}: {len(rows)} unreached, {file_lines} lines")
        if not args.summary:
            for name, first, last in rows:
                print(f"    {first:>5}  {name}  ({last - first + 1} lines)")
    print()
    print(
        f"{count} of {len(functions)} functions in src/repro (<= {lines:,} "
        f"lines) are entered by none of the {len(PATHS)} paths"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
