"""The package holds what its CLI and its benchmark use: every public
module-level function and class of src/thetalattice, and every public
method or property of such a class, is read somewhere in src/ or
perfbench/, beyond its own definition and the package's re-export in
__init__.  A method or property is read only as an attribute (x.name): a
local variable of the same name does not count.  A name that only the tests
read belongs in tests/conftest.py, as an oracle, and the names that only
the benchmark reads are pinned in BENCHMARK_ONLY.  Dunder methods are called
by Python itself and are not checked.

The package's classes are built without code generation: none is a
dataclass, importing the CLI loads no dataclasses module, and each value
class keeps the equality, hashing, immutability, repr and refusals it had as
a frozen dataclass.  The hand-written value classes take their immutability
from the one base graphs._Value, which also makes their arrays read-only.

The CLI is the one front door: the package's one script is cli.main, and no
other module runs as a program."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from thetalattice.census import CensusReport
from thetalattice.embed import Try
from thetalattice.entropy import LatticeSummary
from thetalattice.errors import DegreeTooSmall
from thetalattice.graphs import LabeledGraph, _Value
from thetalattice.voltage import BaseGraph, CertificateFlags, LiftCertificate, VoltageAssignment

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
    unused = {dotted for dotted, _, _ in _public_definitions()} - _used_in("src", "perfbench")
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
    """The public definitions that perfbench/ reads and src/ does not are
    exactly BENCHMARK_ONLY."""
    assert _used_in("perfbench") - _used_in("src") == BENCHMARK_ONLY


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
    are the re-export) imports is read in that module."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    unread = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in paths
        for name, line in _imported_names(path)
        if name not in _read_names(path)[0]
    ]
    assert unread == []


def _is_main_guard(node):
    """Whether a statement is `if __name__ == "__main__":`."""
    test = node.test if isinstance(node, ast.If) else None
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
        and [type(c) for c in test.comparators] == [ast.Constant]
        and test.comparators[0].value == "__main__"
    )


def test_the_cli_is_the_only_entry_point():
    """pyproject.toml declares one script, thetalattice.cli:main; cli.py is
    the only file under src/ with a __main__ guard, and the package has no
    __main__ module."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"thetalattice": "thetalattice.cli:main"}
    assert "gui-scripts" not in project and "entry-points" not in project
    guarded = [
        path.relative_to(ROOT / "src").as_posix()
        for path in sorted((ROOT / "src").rglob("*.py"))
        if any(_is_main_guard(node) for node in ast.parse(path.read_text()).body)
    ]
    assert guarded == ["thetalattice/cli.py"]
    assert not (PACKAGE / "__main__.py").exists()


def test_no_class_is_a_dataclass():
    """No class that a module of src/thetalattice defines is a dataclass."""
    found = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, obj in vars(importlib.import_module(f"thetalattice.{path.stem}")).items()
        if inspect.isclass(obj) and obj.__module__ == f"thetalattice.{path.stem}" and dataclasses.is_dataclass(obj)
    ]
    assert found == []


def _guards_attributes(node):
    """Whether a class body defines __setattr__ or __delattr__, or anything
    in it calls object.__setattr__."""
    defined = {s.name for s in node.body if isinstance(s, ast.FunctionDef)} | {
        target.id for s in node.body if isinstance(s, ast.Assign) for target in s.targets if isinstance(target, ast.Name)
    }
    called = {ast.unparse(call.func) for call in ast.walk(node) if isinstance(call, ast.Call)}
    return bool(defined & {"__setattr__", "__delattr__"}) or "object.__setattr__" in called


def test_only_the_value_base_guards_attributes():
    """The only class of src/thetalattice whose body defines __setattr__ or
    __delattr__, or calls object.__setattr__, is graphs._Value: the value
    classes take their immutability from it and keep no copy of their own."""
    found = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and _guards_attributes(node)
    ]
    assert found == ["graphs._Value"]


def test_importing_the_cli_loads_no_dataclasses():
    """A fresh interpreter that imports thetalattice.cli has not imported
    the dataclasses module: neither the package nor what it imports uses it."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    probe = "import sys, thetalattice.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


_MASKS = np.array([[0, 0, 1, 0, 3]] * 5, dtype=np.int64)
_REPORT = (45 << 8, 45 << 8, 0, 120 << 8, 20 << 8, "per-cube")


# (class, a constructor giving equal values on each call, a stored
# attribute, whether the values are hashable, and the constructor call it
# refuses with its error and message)
_VALUE_CLASSES = [
    (BaseGraph, lambda: BaseGraph(5), "d", True, (lambda: BaseGraph(4), DegreeTooSmall, "requires d >= 5, got 4")),
    (LabeledGraph, lambda: BaseGraph(5).graph, "edge_array", True, None),
    (VoltageAssignment, lambda: VoltageAssignment(3, _MASKS.copy()), "s", False, None),
    (CertificateFlags, lambda: CertificateFlags(True, False, True), "no_zero_voltage_hexes", True, None),
    (
        LiftCertificate,
        lambda: LiftCertificate(VoltageAssignment(3, _MASKS.copy()), CertificateFlags(True, True, True), 7, 1),
        "seed",
        False,
        None,
    ),
    (CensusReport, lambda: CensusReport(*_REPORT), "c6", True, None),
    (
        Try,
        lambda: Try([[1, 2, 3], [4, 5, 6]], 7, Fraction(1, 7)),
        "denom",
        False,
        (lambda: Try([[1, 2, 3]], 0, Fraction(1, 7)), ValueError, "denominator must be positive, got 0"),
    ),
    (
        LatticeSummary,
        lambda: LatticeSummary(10, 8, CensusReport(*_REPORT), Fraction(5, 2)),
        "kappa",
        True,
        None,
    ),
]


@pytest.mark.parametrize(
    "cls, make, attribute, hashable, refusal", _VALUE_CLASSES, ids=[case[0].__name__ for case in _VALUE_CLASSES]
)
def test_value_classes_keep_their_semantics(cls, make, attribute, hashable, refusal):
    """Two equal constructions compare equal (and hash equal where the
    values are hashable; the others refuse hash), a stored attribute cannot
    be assigned or deleted, no array attribute of a _Value can be written
    into, the repr names the class, and an invalid construction is refused
    as before."""
    a, b = make(), make()
    assert type(a) is cls and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(AttributeError):
        setattr(a, attribute, getattr(a, attribute))
    with pytest.raises(AttributeError):
        delattr(a, attribute)
    assert a == b
    if isinstance(a, _Value):
        for array in (getattr(a, name) for name in a._fields):
            if isinstance(array, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
    assert repr(a).startswith(f"{cls.__name__}(")
    if refusal is not None:
        refused, error, message = refusal
        with pytest.raises(error, match=message):
            refused()
