"""What every workload module shares: the operation record, the package
import from the checkout's ``src``, seeded random inputs and the groups."""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
SPECS = BENCH_DIR / "specs"
OUT = BENCH_DIR / "out"


def import_package():
    """Import almostabelian from the checkout, never from site-packages."""
    if not (SRC / "almostabelian" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import almostabelian

    return almostabelian


@dataclass
class Op:
    """One timed operation.

    ``run`` does the work and returns its result.  ``check`` receives the
    result, runs untimed, and raises ``reference.CheckFailed`` when the
    result is wrong.  ``fault`` names the known program fault for the few
    operations that fail on every run today; such an operation counts as
    failed when it raises, or (CLI calls) when its outcome misses the
    correct one.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    fault: Optional[str] = None
    numeric: bool = False


class Rng(random.Random):
    """random.Random with the small exact inputs the workloads use."""

    def frac(self, span: int = 9, den: int = 4) -> Fraction:
        return Fraction(self.randint(-span, span), self.randint(1, den))

    def nonzero(self, span: int = 9, den: int = 4) -> Fraction:
        while True:
            x = self.frac(span, den)
            if x:
                return x

    def ints(self, n: int, span: int = 3, nonzero: bool = False) -> list:
        out = []
        while len(out) < n:
            x = self.randint(-span, span)
            if x or not nonzero:
                out.append(x)
        return out


# name -> {((eigenvalue re, im), block size): multiplicity}
GROUPS = {
    "heis": {((0, 0), 2): 1},
    "aff": {((1, 0), 1): 1},
    "e2": {((0, 1), 1): 1},
    "mix": {((0, Fraction(2, 3)), 1): 1, ((0, 1), 1): 1},
    "heis_r": {((0, 0), 2): 1, ((0, 0), 1): 1},
    "e2_r2": {((0, 1), 1): 1, ((0, 0), 1): 2},
    "heis_r2": {((0, 0), 2): 1, ((0, 0), 1): 2},
    "e2_r3": {((0, 1), 1): 1, ((0, 0), 1): 3},
    "mix_r2": {((0, Fraction(2, 3)), 1): 1, ((0, 1), 1): 1, ((0, 0), 1): 2},
    "heis_e2_r3": {((0, 0), 2): 1, ((0, 1), 1): 1, ((0, 0), 1): 3},
}


def make_group(aa, blocks):
    return aa.multiplicity_function(
        {(aa.GaussRational(re, im), size): mult for ((re, im), size), mult in blocks.items()}
    )


class Group:
    """A group of ``GROUPS`` with the program's datum and the benchmark's
    own rebuild of it, and the inputs the workloads draw on it."""

    def __init__(self, aa, name: str):
        from reference import Datum

        self.aa = aa
        self.name = name
        self.aleph = make_group(aa, GROUPS[name])
        self.ref = Datum(self.aleph)
        self.dim = self.aleph.dim
        self.nilpotent = self.aleph.is_nilpotent

    def exact_time(self, rng: Rng):
        """A time where e^{tJ} has an exact closed form today."""
        if self.nilpotent:
            return rng.frac(6, 3)
        if self.ref.t0_turns is not None:
            return rng.choice((-2, -1, 1, 2)) * self.ref.t0_turns * self.aa.TAU
        return Fraction(0)

    def vector(self, rng: Rng):
        return tuple(rng.frac() for _ in range(self.dim))

    def element(self, rng: Rng, exact_time: bool = True):
        t = self.exact_time(rng) if exact_time else rng.frac(6, 3)
        return self.aa.group_element(self.aleph, self.vector(rng), t)

    def unit(self, *coords):
        """The vector with the given (coordinate, value) entries."""
        v = [Fraction(0)] * self.dim
        for c, x in coords:
            v[c] = x
        return tuple(v)

    def lattice(self, gens):
        """Subgroup from (vector, integer multiple of t0) pairs."""
        t0 = self.aa.TAU * self.ref.t0_turns if self.ref.t0_turns is not None else 0
        return self.aa.subgroup_from_data(self.aleph, [(v, m * t0) for v, m in gens])


def same(a, b) -> bool:
    """Whether two results of one operation are identical."""
    if hasattr(a, "shape") or hasattr(b, "shape"):
        import numpy as np

        return bool(np.array_equal(a, b))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b
