"""The package holds what its CLI, its scripts and its benchmark use: every
public module-level function of src/thetalattice is read somewhere in
src/, scripts/ or perfbench/, beyond its own definition and the package's
re-export in __init__.  A function that only the tests call belongs in
tests/conftest.py, as an oracle."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thetalattice"


def _public_functions():
    """name -> module of every public function defined at module level."""
    return {
        node.name: path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


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
    unused = {f"{module}.{name}" for name, module in _public_functions().items() if name not in read}
    assert unused == set()
