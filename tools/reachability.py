"""Which functions in ``src/repro`` does no CLI result path call?

Runs a fixed list of ``python -m repro`` invocations in this process
under a ``sys.setprofile`` hook, records every code object that was
entered, and checks the functions and methods of ``src/repro`` that none
of the paths entered against :data:`ALLOWLIST`.  The profiler is on
while ``repro`` is imported, so import-time registrations count as
reached.  ``REPRO_FAST_FORWARD`` is pinned to ``1`` while the paths run
(and restored afterwards), so the result does not depend on the outer
environment.

It is a check: the exit status is 1 when a function outside the
allowlist is unreached, when an allowlist entry names a function that
no longer exists, when an allowlisted function is now reached, or when
a path crashes or exits non-zero; otherwise 0.  New code either gets a
path that reaches it, an allowlist entry with its reason, or is not
added.

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

#: The CLI result paths: every subcommand's headline output, and each
#: flag or fault class that selects code of its own, small enough that
#: the whole profiled pass takes a few minutes.
PATHS: Tuple[Tuple[str, ...], ...] = (
    ("table3",),
    ("table3", "--json"),
    ("figure", "7"),
    ("figure", "7", "--apps", "netperf_rr", "--chart"),
    ("figure", "8", "--scale", "0.5"),
    ("figure", "9", "--scale", "0.1"),
    ("figure", "10", "--scale", "0.5"),
    ("migration",),
    ("migration", "--audit"),
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
    ("faults", "plan", "--classes", "virtio_kick_drop", "--intensity", "1.0"),
    ("faults", "plan", "--classes", "iommu_fault", "--io", "passthrough", "--levels", "2"),
    ("faults", "fuzz", "--episodes", "5"),
    ("dc", "demo"),
    ("dc", "run", "--spec", "small", "--json"),
    ("dc", "run", "--spec", "slo"),
    ("dc", "sweep", "--seeds", "2", "--spec", "small"),
    ("dc", "validate", "--spec", "slo"),
    ("dc", "validate", "--spec", os.path.join(ROOT, "examples", "dc_small.json")),
    ("study", "--spec", os.path.join(ROOT, "examples", "study_smoke.json")),
    ("study", "--spec", os.path.join(ROOT, "examples", "study_matrix.json")),
    ("audit", "--episodes", "5"),
    ("audit", "--episodes", "5", "--json"),
    ("scenarios", "gen", "--count", "5"),
    ("scenarios", "run", "--count", "10", "--audit"),
    ("scenarios", "shrink", "--count", "3"),
)


#: Functions no path enters that stay, keyed ``<file under src/repro>:
#: <qualname>``, each with the one-line reason it stays.
ALLOWLIST: Dict[str, str] = {
    # Names the host benchmark binds (hostbench/spans.py FUNCTION_LAYERS).
    "hw/ept.py:compose": "hostbench wraps it by name",
    "hw/ept.py:PageTable.extents": "compose's input",
    "hv/passthrough.py:resolve_through_chain": "hostbench wraps it by name",
    # Exit-table entries: every reason has a handler and an owner.
    "hv/kvm.py:_l0_ept_violation": "L0 handler for EPT_VIOLATION, which no stack raises",
    "hv/dispatch.py:_host_owner": "owner of EPT_VIOLATION exits, which no stack raises",
    # Error paths: they run only when something is wrong.
    "hw/ept.py:EptViolation.__init__": "error path: a translation faults",
    "dc/spec.py:_no_constant": "error path: a spec file holds NaN or Infinity",
    "audit/auditor.py:Auditor._violate": "error path: an audited invariant fails",
    "audit/auditor.py:AuditViolation.__str__": "error path: renders a failed invariant",
    "scenarios/shrink.py:_valid": "error path: shrinking needs a failing scenario",
    "scenarios/shrink.py:shrink_candidates": "error path: shrinking needs a failing scenario",
    "scenarios/shrink.py:shrink_candidates.<locals>.add": "error path: shrinking needs a failing scenario",
    "hw/mem.py:DirtyLog.mark_run": "RX DMA into a migrating vp device; no path has one",
    # The PageRuns Set protocol (collections.abc.Set).
    "hw/mem.py:PageRuns.__contains__": "Set protocol",
    "hw/mem.py:PageRuns.__iter__": "Set protocol",
    "hw/mem.py:PageRuns.__eq__": "Set protocol",
    # Accessors that examples/ scripts call.
    "workloads/engines.py:AppResult.latency_percentile": "examples/ call it",
    "workloads/engines.py:AppResult.mean_latency_s": "examples/ call it",
    "metrics/hist.py:exact_percentile": "the nearest-rank rule latency_percentile uses",
    # Capabilities only a tier-1 test reaches; deleting one deletes the
    # test named here.
    "hw/mem.py:page_of": "tests/hw/test_mem.py::test_page_of",
    "hw/mem.py:pages_in_range": "tests/hw/test_mem.py::test_pages_in_range_spanning",
    "hw/mem.py:MemorySpace.total_pages": "tests/hw/test_mem.py::test_total_pages_rounds_up",
    "metrics/hist.py:Histogram.merge": "tests/metrics/test_hist.py merge tests",
    "metrics/hist.py:Histogram.copy": "tests/metrics/test_hist.py merge and diff tests",
    "metrics/hist.py:Histogram.diff": "tests/metrics/test_hist.py::test_histogram_diff_windows_out_old_counts",
    "metrics/hist.py:Histogram.snapshot": "tests/metrics/test_hist.py merge tests",
    "workloads/engines.py:AppResult.latency_histogram": "tests/workloads/test_latency.py::test_result_histogram_view",
    "workloads/microbench.py:run_all_microbenchmarks": "tests/workloads/test_microbench.py::test_run_all_uses_fresh_stacks",
    "sim/engine.py:Simulator.timeout": "tests/sim/test_process_control.py timeout tests",
    "sim/costs.py:CostModel.as_dict": "tests/sim/test_costs.py::test_as_dict_covers_all_fields",
    "hw/devices/nic.py:RemoteClient.off_receive": "tests/hw/test_nic.py::test_remote_client_receive_register_and_off",
    "hw/devices/nic.py:RemoteClient.send_after": "tests/hw/test_nic.py send_after tests",
    "hw/pci.py:PciBus.unplug": "tests/hw/test_pci.py::test_unplug",
    "hw/pci.py:PciBus.device_at": "tests/hw/test_pci.py::test_device_at_address_routing",
    "hw/pci.py:PciBus.find": "tests/hw/test_pci.py::test_enumerate_and_find",
    "hw/iommu.py:Iommu.detach": "tests/hw/test_iommu.py::test_detach_removes_domain_and_irtes",
    "hw/cpu.py:NativeContext.mem_write": "tests/hw/test_cpu_native.py::test_mem_write_marks_host_pages",
    "hw/lapic.py:Lapic.on_wake": "tests/hw/test_lapic.py::test_wake_callback_on_irr",
    "ooh/grants.py:GrantTable.restore": "tests/ooh/test_grants.py restore tests",
    "hv/viommu.py:VirtualIommu.shadow_for": "tests/hv/test_viommu.py::test_shadow_for_unknown_device",
    # Test- and benchmark-only capabilities that the fidelity claims list
    # (ROADMAP) keeps as claims or deletes with their tests.
    "bench/sweep.py:SweepResult.values": "test/benchmark-only; the claims list decides",
    "bench/sweep.py:SweepResult.monotonic_increasing": "test/benchmark-only; the claims list decides",
    "bench/sweep.py:SweepResult.spread": "test/benchmark-only; the claims list decides",
    "bench/sweep.py:_cost_point": "test/benchmark-only; the claims list decides",
    "bench/sweep.py:sweep_cost": "test/benchmark-only; the claims list decides",
    "bench/sweep.py:_level_point": "test/benchmark-only; the claims list decides",
    "bench/sweep.py:sweep_levels": "test/benchmark-only; the claims list decides",
    "bench/sweep.py:_spec_point": "test/benchmark-only; the claims list decides",
    "bench/sweep.py:sweep_spec": "test/benchmark-only; the claims list decides",
    "bench/sweep.py:format_sweep": "test/benchmark-only; the claims list decides",
    "hv/scheduler.py:SiblingLoad.__init__": "test/benchmark-only; the claims list decides",
    "hv/scheduler.py:SiblingLoad.runnable": "test/benchmark-only; the claims list decides",
    "hv/scheduler.py:SiblingLoad.done": "test/benchmark-only; the claims list decides",
    "hv/scheduler.py:SiblingLoad.take_quantum": "test/benchmark-only; the claims list decides",
    "hv/scheduler.py:NestedVmScheduler.__init__": "test/benchmark-only; the claims list decides",
    "hv/scheduler.py:NestedVmScheduler.attach": "test/benchmark-only; the claims list decides",
    "hv/scheduler.py:NestedVmScheduler.has_runnable_sibling": "test/benchmark-only; the claims list decides",
    "hv/scheduler.py:NestedVmScheduler.run_sibling_quantum": "test/benchmark-only; the claims list decides",
    "hv/scheduler.py:attach_sibling": "test/benchmark-only; the claims list decides",
    "hv/kvm.py:KvmHypervisor.dvh_virtual_idle_available": "only the sibling scheduler asks",
    "core/vidle.py:update_virtual_idle_policy": "only the sibling scheduler calls it",
    "core/vtimer.py:save_virtual_timer": "only the sibling scheduler calls it",
    "core/vtimer.py:restore_virtual_timer": "only the sibling scheduler calls it",
    "core/suspend.py:suspend_vm": "test/benchmark-only; the claims list decides",
    "core/suspend.py:resume_vm": "test/benchmark-only; the claims list decides",
    "hw/vmx.py:ExecControl.copy": "only suspend/resume calls it",
    "hw/lapic.py:Lapic.disarm_timer": "only resume calls it",
    "hv/viommu.py:VirtualIommu.program": "test/benchmark-only; the claims list decides",
    "hv/viommu.py:VirtualIommu.mmio_write": "the register write program traps on",
    "hw/ept.py:PageTable.lookup": "program resolves its target through it",
}


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


def run_paths(paths) -> Tuple[Set[Tuple[str, int]], List[str], List[str]]:
    """Run every path under the profiler, with ``REPRO_FAST_FORWARD``
    pinned to ``1``; return the entered ``(file, first line)`` code
    objects, one status line per path, and the lines of the paths that
    crashed or exited non-zero."""
    entered: Set[Tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    status: List[str] = []
    failed: List[str] = []
    outer = os.environ.get("REPRO_FAST_FORWARD")
    sys.setprofile(profile)
    try:
        from repro.cli import main

        for argv in paths:
            os.environ["REPRO_FAST_FORWARD"] = "1"
            t0 = time.perf_counter()
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # reported and counted, the other paths still run
                rc = f"crashed: {type(exc).__name__}: {exc}"
            line = f"  {time.perf_counter() - t0:7.1f}s  rc={rc}  repro {' '.join(argv)}"
            status.append(line)
            if rc not in (0, None):
                failed.append(line)
    finally:
        sys.setprofile(None)
        if outer is None:
            os.environ.pop("REPRO_FAST_FORWARD", None)
        else:
            os.environ["REPRO_FAST_FORWARD"] = outer
    return entered, status, failed


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
        "--summary", action="store_true",
        help="per-file counts of allowlisted functions instead of each entry",
    )
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    functions = defined_functions()
    entered, status, failed = run_paths(PATHS)
    entered = {(os.path.realpath(path), first) for path, first in entered}
    # A qualname is reached when every def of it is (a property's getter
    # and setter share one); it is unreached when any def is not.
    defs: Dict[str, List[Tuple[int, int, bool]]] = defaultdict(list)
    for (path, first), (name, _first, last) in functions.items():
        key = f"{os.path.relpath(path, SRC)}:{name}"
        defs[key].append((first, last, (os.path.realpath(path), first) in entered))
    unreached = {k for k, rows in defs.items() if not all(r[2] for r in rows)}
    unlisted = sorted(unreached - set(ALLOWLIST))
    stale = sorted(set(ALLOWLIST) - set(defs))
    now_reached = sorted(set(ALLOWLIST) & (set(defs) - unreached))

    print(f"CLI paths ({len(PATHS)}):")
    print("\n".join(status))
    allowed = sorted(unreached & set(ALLOWLIST))
    by_file: Dict[str, List[str]] = defaultdict(list)
    for key in allowed:
        by_file[key.split(":")[0]].append(key)
    print()
    print(f"Allowlisted, unreached ({len(allowed)} functions):")
    for rel in sorted(by_file):
        keys = by_file[rel]
        spans = [(f, last) for k in keys for f, last, _ in defs[k]]
        print(f"  repro/{rel}: {len(keys)} functions, {merged_lines(spans)} lines")
        if not args.summary:
            for key in keys:
                print(f"      {key.split(':', 1)[1]}: {ALLOWLIST[key]}")
    problems = [
        ("unreached and not allowlisted", [
            f"repro/{k} (line {defs[k][0][0]}, "
            f"{sum(last - first + 1 for first, last, _ in defs[k])} lines)"
            for k in unlisted
        ]),
        ("allowlisted but no such function", [f"repro/{k}" for k in stale]),
        ("allowlisted but reached (drop the entry)", [f"repro/{k}" for k in now_reached]),
        ("paths that crashed or exited non-zero", [line.strip() for line in failed]),
    ]
    for title, rows in problems:
        if rows:
            print()
            print(f"FAIL: {title} ({len(rows)}):")
            print("\n".join(f"  {row}" for row in rows))
    print()
    print(
        f"{len(unreached)} of {len(defs)} functions in src/repro are entered by "
        f"none of the {len(PATHS)} paths; {len(unlisted)} of them are not "
        f"allowlisted ({len(ALLOWLIST)} allowlist entries)"
    )
    return 1 if any(rows for _title, rows in problems) else 0


if __name__ == "__main__":
    sys.exit(main())
