"""The benchmark's per-layer metrics name package functions by dotted path;
perfbench/tracer.py wraps them by that name, and a name that no longer
resolves reads 0 instead of failing.  These tests read the tables from the
benchmark's source, without editing it, pin which names resolve, and run its
tracer around one certification."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

from conftest import mask_ints
import thetalattice
from thetalattice.certify import constraint_cycles, search_signings
from thetalattice.voltage import build_base_graph

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



def _load_tracer():
    importlib.import_module("thetalattice.cli")  # the tracer wraps every layer
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_a_certification():
    """The counters --trace 1 reports for certify(5, seed=1): the constraint
    count, the stages, and the candidate-by-mask tests of the greedy search,
    replayed here on the packed masks."""
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        thetalattice.certify(5, seed=1)
    finally:
        tracer.uninstall()
    counts = tracer.take()[2]

    cons = constraint_cycles(*build_base_graph(5))
    uncovered = mask_ints(cons)
    tests = 0
    for sigma in search_signings(cons, seed=1):
        tests += 64 * len(uncovered)
        uncovered = [m for m in uncovered if not (sigma & m).bit_count() & 1]
    assert not uncovered
    assert counts["certify.constraints"] == 330
    assert counts["certify.stages"] == 6
    assert counts["certify.mask_tests"] == tests
