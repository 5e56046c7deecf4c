"""The benchmark's per-layer metrics name package functions by dotted path;
perfbench/tracer.py wraps them by that name, and a name that no longer
resolves reads 0 instead of failing.  These tests read the tables from the
benchmark's source, without editing it, pin which names resolve, run its
tracer around one certification, and run every workload's set-up and one
pass of its commands."""

import ast
import importlib
import types

import pytest

import thetalattice
from conftest import PERFBENCH, perfbench_module, random_bits_voltage
from thetalattice import embed
from thetalattice.cli import main
from thetalattice.voltage import build_base_graph, derived_cover

# renamed away when derived_cover replaced both builders, removed with the
# greedy search and its constraint enumeration when the Wenger voltage became
# the one construction, the count wrappers folded into census(), and
# lattice_report removed when report came to decide certificates on the
# census itself; the benchmark still names them until its next change (it
# counts calls of census.count_c4 too, a "count:" source, which this check
# does not read)
STALE = {
    "voltage.derived_torus",
    "voltage.full_unit_graph",
    "certify.constraint_cycles",
    "certify.search_signings",
    "certify.bits_from_stages",
    "census.classify_c4",
    "census.count_c6",
    "census.count_theta222",
    "entropy.lattice_report",
}


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
    return perfbench_module("tracer")


def test_tracer_counts_a_certification():
    """The counters --trace 1 reports for certify(5, seed=1): one
    verification with one DFS re-check, and none of the counters of the
    removed constraint enumeration and greedy search."""
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        thetalattice.certify(5, seed=1)
    finally:
        tracer.uninstall()
    counts = tracer.take()[2]
    assert counts["certify.verify_certificate"] == 1
    assert counts["certify.recheck_constraints_dfs"] == 1
    for stale in ("certify.constraints", "certify.stages", "certify.mask_tests"):
        assert counts[stale] == 0


def test_tracer_counts_an_embedding():
    """The tracer reads the fug argument of embed.is_good_try and the
    attempt count find_good_try returns: one find_good_try on a d = 5, s = 2
    full unit graph counts its attempts, one good try, and 27 block
    segments per edge for every try it checked."""
    base, volt0 = build_base_graph(5)
    fug = derived_cover(base, random_bits_voltage(base, volt0, 2, 11))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        _, attempts = embed.find_good_try(fug, seed=3)
    finally:
        tracer.uninstall()
    counts = tracer.take()[2]
    assert counts["embed.attempts"] == attempts >= 1
    assert counts["embed.good_tries"] == 1
    assert counts["embed.block_segments"] == 27 * len(fug.edges) * attempts


def _layers():
    """The package's layer modules, as the benchmark hands them to a
    workload."""
    layers = _literal(PERFBENCH / "tracer.py", "LAYERS")
    return types.SimpleNamespace(**{layer: importlib.import_module(f"thetalattice.{layer}") for layer in layers})


@pytest.mark.parametrize("name", sorted(perfbench_module("workloads").WORKLOADS))
def test_workload_setup_runs(name):
    """Each workload's set-up, run in process on the package's layer
    modules: it re-verifies the pinned certificates through the voltage API
    the benchmark calls (to_voltage, with_bits, level_bits), so a change
    that breaks that API fails here, not as a failed benchmark run."""
    assert isinstance(perfbench_module("workloads").WORKLOADS[name].setup(_layers()), dict)


@pytest.mark.parametrize("name", sorted(perfbench_module("workloads").WORKLOADS))
def test_workload_pass_is_correct(name, tmp_path, capsys):
    """One pass of each workload at seed 1, after its set-up, run in process
    through cli.main: every command's own check finds no problem, so a
    change that breaks a workload's outputs fails here, not as a failed
    benchmark run."""
    workload = perfbench_module("workloads").WORKLOADS[name]
    problems = []
    for cmd in workload.commands(workload.setup(_layers()), 1, tmp_path):
        rc = main(cmd.argv)
        problems += [f"{cmd.argv[0]}: {p}" for p in cmd.check(rc, capsys.readouterr().out)]
    assert problems == []
