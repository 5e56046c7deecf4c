"""The package holds what its CLI, its scripts and its benchmark use: every
public module-level function and class of src/thetalattice, and every public
method or property of such a class, is read somewhere in src/, scripts/ or
perfbench/, beyond its own definition and the package's re-export in
__init__.  A method or property is read only as an attribute (x.name): a
local variable of the same name does not count.  A name that only the tests
read belongs in tests/conftest.py, as an oracle, and the names that only
the benchmark reads are pinned in BENCHMARK_ONLY.  Dunder methods are called
by Python itself and are not checked."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thetalattice"


def _public_definitions():
    """(dotted name, name, whether it is a class member) of every public
    module-level function and class, and of every public method or property
    of such a class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(ast.parse(path.read_text()).body, (ast.FunctionDef, ast.ClassDef)):
            found.append((f"{path.stem}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{path.stem}.{node.name}.{member.name}", member.name, True)
                    for member in _public(node.body, (ast.FunctionDef,))
                ]
    return found


def _public(body, kinds):
    """The definitions of these kinds in body whose names have no leading
    underscore (which also leaves out the dunders)."""
    return [node for node in body if isinstance(node, kinds) and not node.name.startswith("_")]


def _read_names(path):
    """(loaded names, attributes) that a file reads.  An import alone is not
    a read, nor is a definition."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return names, attributes


def _used_in(*folders):
    """The dotted names of the public definitions that the files of these
    folders read."""
    names, attributes = set(), set()
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path != PACKAGE / "__init__.py":  # the re-export
                file_names, file_attributes = _read_names(path)
                names |= file_names
                attributes |= file_attributes
    return {
        dotted
        for dotted, name, member in _public_definitions()
        if name in attributes or (not member and name in names)
    }


def test_every_public_function_is_used_outside_the_tests():
    unused = {dotted for dotted, _, _ in _public_definitions()} - _used_in("src", "scripts", "perfbench")
    assert unused == set()


# the public names that only the benchmark reads: they go once it stops
# reading them, and a new one is a change to this list
BENCHMARK_ONLY = {
    "graphs.build_root_unit_graph",
    "graphs.LabeledGraph.edges",
    "voltage.VoltageAssignment.level_bits",
    "voltage.VoltageAssignment.with_bits",
    "voltage.LiftCertificate.to_voltage",
}


def test_the_names_only_the_benchmark_reads_are_pinned():
    """The public definitions that perfbench/ reads and src/ and scripts/
    do not are exactly BENCHMARK_ONLY."""
    assert _used_in("perfbench") - _used_in("src", "scripts") == BENCHMARK_ONLY


def _imported_names(path):
    """The names a file's import statements bind, with their line numbers;
    __future__ imports bind none."""
    bound = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            bound += [((alias.asname or alias.name).split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    return bound


def test_no_module_imports_a_name_it_never_reads():
    """Every name a module of src/thetalattice (but __init__, whose imports
    are the re-export) or of scripts/ imports is read in that module."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "scripts").glob("*.py"))
    unread = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in paths
        for name, line in _imported_names(path)
        if name not in _read_names(path)[0]
    ]
    assert unread == []
