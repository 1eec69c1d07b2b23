"""The docstring examples of every package module, run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import almostabelian


def _docstring_examples() -> list:
    names = ["almostabelian"] + [
        f"almostabelian.{info.name}" for info in pkgutil.iter_modules(almostabelian.__path__)
    ]
    finder = doctest.DocTestFinder()
    found = []
    for name in names:
        found.extend(t for t in finder.find(importlib.import_module(name)) if t.examples)
    return sorted(found, key=lambda t: t.name)


EXAMPLES = _docstring_examples()


@pytest.mark.parametrize("example", EXAMPLES, ids=[t.name for t in EXAMPLES])
def test_docstring_example(example):
    runner = doctest.DocTestRunner()
    runner.run(example)
    assert runner.summarize(verbose=False).failed == 0
