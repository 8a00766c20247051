"""The host benchmark's binding surface still resolves.

``hostbench/spans.py`` wraps simulator classes and functions by name
(``CLASS_LAYERS``, ``FUNCTION_LAYERS``) and ``hostbench/layers.py``
reads per-layer metrics off span names such as
``hv.dispatch:ExitHandlerRegistry.route``.  A rename inside ``repro``
would otherwise surface only when a traced benchmark run fails.  The
benchmark files are read as source (parsed, never imported or
modified), so this test needs nothing beyond the package itself.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib
import re
from typing import Dict, List

HOSTBENCH = pathlib.Path(__file__).resolve().parents[2] / "hostbench"

#: A complete span name: ``<module relative to repro>:<qualname>``.
_SPAN_NAME = re.compile(r"^[a-z_]+(\.[a-z_]+)*:[A-Za-z_]\w*(\.[A-Za-z_]\w*)?$")


def _module_constant(path: pathlib.Path, name: str) -> Dict[str, tuple]:
    """The literal value assigned to ``name`` at module level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id == name:
            return ast.literal_eval(value)
    raise AssertionError(f"{name} not found in {path}")


def _span_names(path: pathlib.Path) -> List[str]:
    return sorted(
        {
            node.value
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _SPAN_NAME.match(node.value)
        }
    )


def _resolve(dotted_module: str, qualname: str):
    obj = importlib.import_module(dotted_module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def test_class_layers_resolve():
    layers = _module_constant(HOSTBENCH / "spans.py", "CLASS_LAYERS")
    assert layers
    for module, classes in layers.items():
        for name in classes:
            assert inspect.isclass(_resolve(module, name)), f"{module}.{name}"


def test_function_layers_resolve():
    layers = _module_constant(HOSTBENCH / "spans.py", "FUNCTION_LAYERS")
    assert layers
    for module, functions in layers.items():
        for name in functions:
            assert inspect.isfunction(_resolve(module, name)), f"{module}.{name}"


def test_layer_span_names_resolve():
    names = _span_names(HOSTBENCH / "layers.py")
    assert "hv.dispatch:ExitHandlerRegistry.route" in names
    for name in names:
        module, qualname = name.split(":")
        assert callable(_resolve(f"repro.{module}", qualname)), name


def test_dispatch_route_is_a_public_method():
    from repro.hv.dispatch import ExitHandlerRegistry

    assert inspect.isfunction(vars(ExitHandlerRegistry)["route"])
