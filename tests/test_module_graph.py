"""The package's import graph: module-level imports are acyclic, and only
the float stack (numeric, oracle) is imported inside functions, so that
exact work never loads numpy or scipy."""

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


def _imports():
    """module -> (module-level targets, function-level targets)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        module_level, function_level = set(), set()
        for node in ast.walk(tree):
            targets = _package_imports(node)
            (module_level if id(node) in top else function_level).update(targets)
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
