"""The package's public surface: every public name has a caller, and every
import is used.

A public top-level function or class is referenced by some package module
besides its own definition, or is exported from the package.  No file in
the package or in the tests imports a name it never uses.  References are
read from the syntax tree, so a name mentioned only in a docstring or a
doctest does not count.
"""

import ast
from pathlib import Path

import almostabelian

PACKAGE = Path(almostabelian.__file__).parent
TESTS = Path(__file__).parent


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


MODULES = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def _names_used(nodes) -> set:
    return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name)}


def _imported_from(module: str) -> set:
    """Names that other package modules (not __init__) import from module."""
    out = set()
    for name, tree in MODULES.items():
        if name == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module == module:
                out.update(alias.name for alias in node.names)
    return out


def test_every_public_name_has_a_caller():
    exported = set(almostabelian.__all__)
    uncalled = set()
    for module, tree in MODULES.items():
        imported = _imported_from(module)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in exported or name in imported:
                continue
            if name not in _names_used(n for n in tree.body if n is not node):
                uncalled.add((module, name))
    assert uncalled == set()


def _unused_imports(path) -> list:
    tree = _parse(path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = _names_used([tree])
    return [f"{path.name}:{line}: {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    # __init__ imports in order to export
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    assert [entry for path in paths for entry in _unused_imports(path)] == []
