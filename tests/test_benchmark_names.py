"""The benchmark's per-layer metrics name package functions by dotted path;
perfbench/tracer.py wraps them by that name, and a name that no longer
resolves reads 0 instead of failing.  These tests read the tables from the
benchmark's source, without importing or editing it, and pin which names
resolve."""

import ast
import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# renamed away when derived_cover replaced both builders; the benchmark
# still names them until its next change
STALE = {"voltage.derived_torus", "voltage.full_unit_graph"}


def _literal(path, name):
    """The literal value assigned to a module-level name in a source file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def _traced(qual, methods):
    """Whether the tracer wraps qual: a public module-level function defined
    in thetalattice.<layer>, or a method it lists in METHODS."""
    layer, name = qual.split(".")
    module = importlib.import_module(f"thetalattice.{layer}")
    obj = vars(module).get(name)
    if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
        return not name.startswith("_")
    return any(meth == name for _, meth in methods.get(layer, ()))


def test_per_layer_function_names_resolve():
    per_layer = _literal(PERFBENCH / "run.py", "PER_LAYER")
    methods = _literal(PERFBENCH / "tracer.py", "METHODS")
    functions = {src[len("fn:"):] for _, src in per_layer.values() if src.startswith("fn:")}
    assert len(functions) > 20
    unresolved = {qual for qual in functions if not _traced(qual, methods)}
    assert unresolved == STALE

