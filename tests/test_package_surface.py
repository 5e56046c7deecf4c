"""The package holds what its CLI, its scripts and its benchmark use: every
public module-level function and class of src/thetalattice, and every public
method or property of such a class, is read somewhere in src/, scripts/ or
perfbench/, beyond its own definition and the package's re-export in
__init__.  A name that only the tests read belongs in tests/conftest.py, as
an oracle.  Dunder methods are called by Python itself and are not checked."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thetalattice"


def _public_definitions():
    """(dotted name, name) of every public module-level function and class,
    and of every public method or property of such a class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(ast.parse(path.read_text()).body, (ast.FunctionDef, ast.ClassDef)):
            found.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{path.stem}.{node.name}.{member.name}", member.name)
                    for member in _public(node.body, (ast.FunctionDef,))
                ]
    return found


def _public(body, kinds):
    """The definitions of these kinds in body whose names have no leading
    underscore (which also leaves out the dunders)."""
    return [node for node in body if isinstance(node, kinds) and not node.name.startswith("_")]


def _read_names(path):
    """The names a file reads: every loaded name and every attribute.  An
    import alone is not a read, nor is a definition."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_function_is_used_outside_the_tests():
    read = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path != PACKAGE / "__init__.py":  # the re-export
                read |= _read_names(path)
    unused = {dotted for dotted, name in _public_definitions() if name not in read}
    assert unused == set()
