"""The package's import graph: module-level imports are acyclic, and
nothing but the float stack (numeric, oracle) is imported inside
functions, so that exact work never loads numpy or scipy and every other
dependency is visible at the top of its module."""

import ast
import graphlib
from pathlib import Path

import almostabelian

PACKAGE = Path(almostabelian.__file__).parent
FLOAT_STACK = {"numeric", "oracle"}


def _package_imports(node):
    """Names of the package modules a relative import statement loads."""
    if not isinstance(node, ast.ImportFrom) or node.level == 0:
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def _any_imports(node):
    """Names of the modules any import statement loads: package modules by
    their own name, others by their full dotted name."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return _package_imports(node)


def _imports():
    """module -> (module-level package targets, function-level targets of
    any kind)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        module_level, function_level = set(), set()
        for node in ast.walk(tree):
            if id(node) in top:
                module_level.update(_package_imports(node))
            else:
                function_level.update(_any_imports(node))
        out[path.stem] = (module_level, function_level)
    return out


IMPORTS = _imports()


def test_module_level_imports_form_a_dag():
    graph = {name: level for name, (level, _) in IMPORTS.items()}
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert set(order) >= set(IMPORTS)


def test_function_level_imports_are_the_float_stack():
    stray = {
        name: sorted(inner - FLOAT_STACK)
        for name, (_, inner) in IMPORTS.items()
        if inner - FLOAT_STACK
    }
    assert stray == {}
