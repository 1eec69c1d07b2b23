"""Committed mutation checks: does each property still catch the fault it
was written against?

Each mutant names one file of ``src/almostabelian``, a text that occurs
exactly once in it, the text that replaces it, and the tests that must
fail on the mutated package.  The script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, checks that the selected
tests pass on the unmutated copy, then applies each mutant there in turn
and runs its tests.  The repository itself is never edited.

Run from anywhere, to apply every mutant in MUTANTS:

    python tools/mutants.py

Exit 0 when every mutant is killed, 1 when some survive, 2 when a mutant
does not apply or its tests do not pass on the unmutated copy.
``tests/test_mutants.py`` checks, in the test suite, that every old text
still occurs exactly once, so a refactor that moves the code has to move
the mutant with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "almostabelian"
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/almostabelian
    old: str
    new: str
    tests: tuple  # pytest node ids or paths, relative to the repository


MUTANTS = (
    Mutant(
        "central action keeps gamma off ker J",
        "autos.py",
        "off = set(range(aleph.dim)) - set(aleph.kernel_coordinates)",
        "off = set()",
        ("tests/test_laws.py::test_aut_image_is_the_generator_images",),
    ),
    Mutant(
        "aut_image multiplies by M_Z untransposed",
        "linalg.py",
        "a_cols, a_den = cleared_columns(tuple(zip(*a)))",
        "a_cols, a_den = cleared_columns(tuple(a))",
        ("tests/test_laws.py::test_aut_image_is_the_generator_images",),
    ),
    Mutant(
        "integer coordinates accept a polynomial quotient",
        "linalg.py",
        "if any(c is None or len(c) > 1 for c in x):",
        "if any(c is None for c in x):",
        ("tests/test_laws.py::test_a_polynomial_quotient_is_no_integer_coordinate",),
    ),
    Mutant(
        "forward elimination skips the rows below the pivot",
        "linalg.py",
        "for i in range(0 if full else r + 1, nrows):",
        "for i in range(0 if full else nrows, nrows):",
        ("tests/test_linalg.py::test_kernel_matches_field_elimination",),
    ),
    Mutant(
        "hermite_columns keeps a negative pivot",
        "integers.py",
        "        if row[r] < 0:\n            for rows in (h, v):",
        "        if False:\n            for rows in (h, v):",
        ("tests/test_laws.py::test_reduce_generators_is_idempotent",),
    ),
    Mutant(
        "solve_columns reads the height from the columns",
        "linalg.py",
        "cleared_rows(list(zip(*cols, *bs, strict=True)))",
        "cleared_rows(list(zip(*cols, *bs, strict=True)) if cols else [])",
        ("tests/test_linalg.py::test_solve_columns_without_columns",),
    ),
    Mutant(
        "_solve_delta drops the null-direction completion",
        "lattices.py",
        "                delta[r0 + i][r0:] = vec_add(delta[r0 + i][r0:], z)",
        "                pass",
        ("tests/test_lattices.py::TestRelated::test_search_completes_a_singular_delta",),
    ),
    Mutant(
        "the primitive part keeps a negative leading coefficient",
        "scalars.py",
        "    if a[-1] < 0:\n        g = -g\n",
        "",
        ("tests/test_scalars.py::TestZGcd::test_remainder_sequence_matches_euclid",),
    ),
    Mutant(
        "Bareiss elimination skips the division by the previous pivot",
        "linalg.py",
        "[_zdiv(_zsub(_zmul(p, x), _zmul(f, y)), prev) for x, y in zip(row, top)]",
        "[_zsub(_zmul(p, x), _zmul(f, y)) for x, y in zip(row, top)]",
        ("tests/test_linalg.py::test_inverse_known",),
    ),
    Mutant(
        "the dilation conjugator counts its exponent from the top",
        "expmap.py",
        "power = alpha ** (n - 1 - k)",
        "power = alpha ** k",
        ("tests/test_laws.py::test_dilation_conjugator_twists_j",),
    ),
    Mutant(
        "the lattice constructors skip validation",
        "lattices.py",
        "        raise errors[0]",
        "        pass",
        ("tests/test_lattices.py::TestBoundary::test_construction_is_validation",),
    ),
    Mutant(
        "the rational lane admits a tau-valued operand",
        "scalars.py",
        "if len(xn) < 2 and len(yn) < 2 and",
        "if len(xn) < 3 and len(yn) < 3 and",
        ("tests/test_scalars.py::TestRationalLane::test_agrees_with_the_oracle",),
    ),
    Mutant(
        "closedness compares only the dimensions of the two spans",
        "subgroups.py",
        "return inside.rank == len(right) == cleared_rank([*inside.cleared[0], *right])",
        "return inside.rank == len(right)",
        ("tests/test_subgroups.py::TestClosed::test_equal_dimensions_different_spans",),
    ),
    Mutant(
        "the split drops the slope column",
        "subgroups.py",
        "rows = [(*n, -s) for n, s in zip(normals, mat_vec(normals, slope))]",
        "rows = [(*n, ZERO) for n, s in zip(normals, mat_vec(normals, slope))]",
        ("tests/test_subgroups.py::test_split_agrees_with_residual_oracle",),
    ),
    Mutant(
        "representability reads the kernel coordinates for the abelian ones",
        "lattices.py",
        "free = aleph.abelian_coordinates",
        "free = aleph.kernel_coordinates",
        ("tests/test_laws.py::test_representability_is_the_rank_criterion",),
    ),
    Mutant(
        "lattice equality compares the held matrices",
        "lattices.py",
        "(self.aleph, self.generators) == (other.aleph, other.generators)",
        "(self.aleph, self.cleared) == (other.aleph, other.cleared)",
        ("tests/test_laws.py::test_a_lattice_is_its_generators_whatever_its_held_form",),
    ),
    Mutant(
        "the normalizing image keeps the first generator's vector part",
        "lattices.py",
        "split = (((),) * aleph.dim + (first[-1],),)",
        "split = (first,)",
        ("tests/test_laws.py::test_normalize_carries_the_lattice_onto_its_image",),
    ),
    Mutant(
        "the shear image keeps a deep row",
        "lattices.py",
        "() if i in deep else x",
        "() if i in deep[1:] else x",
        ("tests/test_laws.py::test_normalize_carries_the_lattice_onto_its_image",),
    ),
    Mutant(
        "the sweep's phi weights use j! for (j+1)!",
        "expmap.py",
        "_taylor_weights(n, 1 if phi and eig.is_zero else 0)",
        "_taylor_weights(n, 0)",
        ("tests/test_laws.py::test_exp_and_phi_of_a_vector_are_the_series",),
    ),
    Mutant(
        "the rational lane inverts its quotient",
        "scalars.py",
        "return _rational(pq[0] / pq[1])",
        "return _rational(pq[1] / pq[0])",
        ("tests/test_scalars.py::TestRationalLane::test_agrees_with_the_oracle",),
    ),
)


# A pytest plugin for the copy: the suite's derandomized hypothesis profile
# without the shrink phase, since a mutant is killed by its first failing
# example and shrinking it only costs time.
NO_SHRINK = """
from hypothesis import Phase, settings


def pytest_configure(config):
    settings.register_profile(
        "mutants", settings.get_profile("derandomized"), phases=(Phase.explicit, Phase.generate)
    )
    settings.load_profile("mutants")
"""


def _pytest(copy: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-p", "no_shrink", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def _run(copy: Path, mutant: Mutant) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant on the copy."""
    path = copy / PACKAGE / mutant.file
    original = path.read_text()
    if original.count(mutant.old) != 1:
        return f"error: old text occurs {original.count(mutant.old)} times in {mutant.file}"
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        proc = _pytest(copy, mutant.tests)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    finally:
        path.write_text(original)
    if proc.returncode in (1, 2):  # failed tests, or a package that no longer imports
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"error: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", copy / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        (copy / "no_shrink.py").write_text(NO_SHRINK)
        baseline = _pytest(copy, sorted({t for m in MUTANTS for t in m.tests}))
        if baseline.returncode != 0:
            print("the selected tests fail on the unmutated copy:", file=sys.stderr)
            print(baseline.stdout[-4000:], file=sys.stderr)
            return 2
        outcomes = []
        for mutant in MUTANTS:
            start = time.perf_counter()
            outcome = _run(copy, mutant)
            outcomes.append(outcome)
            print(f"{outcome.splitlines()[0]:<18} {time.perf_counter() - start:6.1f} s  {mutant.name}")
            if outcome.startswith("error"):
                print(outcome, file=sys.stderr)
    if any(o.startswith("error") for o in outcomes):
        return 2
    survivors = [m.name for m, o in zip(MUTANTS, outcomes) if o == "survived"]
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
