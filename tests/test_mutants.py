"""The committed mutants of tools/mutants.py still apply: each old text
occurs exactly once in its file, and each test selection names a test
file that exists.  Running the mutants is the script's job, outside the
suite."""

import importlib.util
from pathlib import Path

import almostabelian

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(almostabelian.__file__).parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_applies_once():
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert (PACKAGE / m.file).read_text().count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        assert m.tests and all((ROOT / t.split("::")[0]).is_file() for t in m.tests), m.name
