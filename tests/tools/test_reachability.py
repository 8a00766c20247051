"""``tools/reachability.py``: its allowlist is well formed, and what its
paths reach does not depend on the outer environment.

The allowlist test reads the tool and the package as source (parsed,
never run), so it takes a fraction of a second; the path test runs one
small CLI path under the tool's profiler.
"""

from __future__ import annotations

import ast
import functools
import importlib.util
import os
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "reachability.py"
SRC = ROOT / "src" / "repro"


def _allowlist():
    """``[(key, reason node)]`` of the ALLOWLIST literal, in source order."""
    for node in ast.parse(TOOL.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "ALLOWLIST":
            assert isinstance(node.value, ast.Dict)
            return list(zip(node.value.keys, node.value.values))
    raise AssertionError("ALLOWLIST not found in tools/reachability.py")


@functools.lru_cache(maxsize=None)
def _qualnames(path: pathlib.Path):
    """Every ``def`` in ``path`` by qualified name (nested defs under
    ``<locals>``)."""
    names = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return names


def test_allowlist_entries_name_existing_defs_once_with_a_reason():
    entries = _allowlist()
    assert entries
    keys = []
    for key_node, reason_node in entries:
        assert isinstance(key_node, ast.Constant) and isinstance(key_node.value, str)
        key = key_node.value
        keys.append(key)
        assert isinstance(reason_node, ast.Constant), key
        assert isinstance(reason_node.value, str) and reason_node.value.strip(), key
        assert "\n" not in reason_node.value, key
        rel, _, qualname = key.partition(":")
        path = SRC / rel
        assert path.is_file(), key
        assert qualname in _qualnames(path), key
    duplicates = [key for key, n in Counter(keys).items() if n > 1]
    assert not duplicates


def _load_tool():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paths_run_with_fast_forward_whatever_the_outer_environment(monkeypatch):
    """An outer ``REPRO_FAST_FORWARD=0`` (CI's stepped leg, a developer
    shell) must not hide the fast-forward and run-ahead functions from
    the check; the variable is restored afterwards."""
    tool = _load_tool()
    monkeypatch.setenv("REPRO_FAST_FORWARD", "0")
    entered, _status, failed = tool.run_paths([("micro", "Hypercall", "--levels", "2")])
    assert not failed
    assert os.environ["REPRO_FAST_FORWARD"] == "0"
    functions = tool.defined_functions()
    entered = {(os.path.realpath(path), first) for path, first in entered}
    names = {
        name
        for (path, first), (name, _first, _last) in functions.items()
        if (os.path.realpath(path), first) in entered
    }
    assert {
        "KvmHypervisor.repeat_l0_vmx", "Simulator.ff_scan", "Simulator.ff_shift"
    } <= names
