"""Floating-point and brute-force oracles for the exact layer.

Every closed form in the package has an independent numeric check here.
The dense matrix exponential is scipy's scaling-and-squaring Pade
implementation and never touches the exact block formulas it validates.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import expm as _scipy_expm

from .expmap import e2_witness, is_exponential
from .jordan import MultiplicityFunction, algebra_element
from .numeric import group_rep_numeric, phi_numeric
from .reps import algebra_rep

DEFAULT_SEED = 0x5EED


# Oracle thresholds: dense-versus-closed-form agreement, the anti-Hermitian
# part of a commutator, the drift allowed in a probe's hypotheses, and the
# image and argument gaps that make a collision.
CROSSCHECK_TOL = 1e-9
ANTIHERMITIAN_TOL = 1e-8
HYPOTHESIS_TOL = 1e-10
COLLISION_IMAGE_TOL = 1e-6
COLLISION_DOMAIN_TOL = 1e-4


@dataclass(frozen=True)
class OracleReport:
    name: str
    passed: bool
    max_dev: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} max_dev={self.max_dev}"


def dense_expm(m) -> np.ndarray:
    """Dense matrix exponential, scaling-and-squaring with a Pade core."""
    arr = np.asarray(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("dense_expm needs a square matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("dense_expm needs finite entries")
    return _scipy_expm(arr)


def _rand_fraction(rng: random.Random, span: int, den: int = 7) -> Fraction:
    return Fraction(rng.randint(-span * den, span * den), den)


def exp_crosscheck(
    aleph: MultiplicityFunction,
    samples: int,
    seed: int = DEFAULT_SEED,
) -> OracleReport:
    """Closed-form exponential against the dense oracle on random data.

    Exponentiates the algebra representation of random rational (v, t)
    densely and compares with the group representation of the closed-form
    image entrywise.
    """
    rng = random.Random(seed)
    d = aleph.dim
    worst = 0.0
    for _ in range(samples):
        coords = [_rand_fraction(rng, 2) for _ in range(d)]
        t = _rand_fraction(rng, 3)
        x = algebra_element(aleph, coords, t)
        lhs = dense_expm(algebra_rep(aleph, x).numeric())
        tf = float(t)
        vf = np.array([float(c) for c in coords])
        rhs = group_rep_numeric(aleph, phi_numeric(aleph, tf) @ vf, tf, "G")
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return OracleReport(
        "exp_crosscheck", worst < CROSSCHECK_TOL, worst, f"samples={samples}"
    )


def _commuting_antihermitian_pair(rng: np.random.Generator, n: int):
    # common unitary frame; scalar blocks against anti-Hermitian blocks
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(raw)
    scalar = np.zeros((n, n), dtype=complex)
    blocks = np.zeros((n, n), dtype=complex)
    offset = 0
    while offset < n:
        s = int(rng.integers(1, n - offset + 1))
        cell = slice(offset, offset + s)
        scalar[cell, cell] = 1j * rng.normal() * np.eye(s)
        m = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        blocks[cell, cell] = (m - m.conj().T) / 2
        offset += s
    return q @ scalar @ q.conj().T, q @ blocks @ q.conj().T


def _hypotheses_hold(x, y, z, tol: float) -> bool:
    if np.linalg.norm(x + x.conj().T) > tol:
        return False
    if np.linalg.norm(y + y.conj().T) > tol:
        return False
    if np.linalg.norm(x @ z - z @ x) > tol:
        return False
    return np.linalg.norm(y @ z - z @ y) <= tol


def antihermitian_probe(
    trials: int,
    dim: int,
    seed: int = DEFAULT_SEED,
) -> OracleReport:
    """Anti-Hermitian pairs with vanishing double commutators commute.

    Pairs are built to satisfy the hypotheses by construction: a scalar
    imaginary multiple per block against an arbitrary anti-Hermitian
    block refinement in a common unitary frame.  The anti-Hermitian part
    of the commutator must then vanish; triples whose hypotheses drift
    beyond the hypothesis tolerance are excluded from the assertion.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for _ in range(trials):
        n = int(rng.integers(2, dim + 1))
        x, y = _commuting_antihermitian_pair(rng, n)
        z = x @ y - y @ x
        if not _hypotheses_hold(x, y, z, HYPOTHESIS_TOL):
            continue
        checked += 1
        anti = (z - z.conj().T) / 2
        worst = max(worst, float(np.linalg.norm(anti)))
    return OracleReport(
        "antihermitian_probe",
        worst < ANTIHERMITIAN_TOL,
        worst,
        f"checked={checked}/{trials}",
    )


def _chebyshev_gaps(points: np.ndarray) -> np.ndarray:
    """Pairwise max-norm distances between the rows of points.

    One coordinate at a time, so the work arrays stay n x n rather than
    n x n x columns.
    """
    gaps = np.zeros((len(points), len(points)))
    for column in points.T:
        np.maximum(gaps, np.abs(column[:, None] - column[None]), out=gaps)
    return gaps


def injectivity_probe(
    aleph: MultiplicityFunction,
    samples: int,
    seed: int = DEFAULT_SEED,
) -> OracleReport:
    """Injectivity of exp on samples, or an explicit collision pair.

    For exponential data, nearby images must come from nearby arguments
    across all sample pairs.  Otherwise the rotation block provides the
    collision: after one full turn of the block the displacement factor
    kills its plane, so distinct arguments share an image.
    """
    d = aleph.dim
    if is_exponential(aleph).exponential:
        rng = random.Random(seed)
        args = np.empty((samples, d + 1))
        for i in range(samples):
            v = np.array([rng.uniform(-2.0, 2.0) for _ in range(d)])
            t = rng.uniform(-3.0, 3.0)
            args[i, :d] = v
            args[i, d] = t
        images = np.empty_like(args)
        for i in range(samples):
            t = args[i, d]
            images[i, :d] = phi_numeric(aleph, t) @ args[i, :d]
            images[i, d] = t
        img_gap = _chebyshev_gaps(images)
        arg_gap = _chebyshev_gaps(args)
        close = img_gap < COLLISION_IMAGE_TOL
        np.fill_diagonal(close, False)
        collided = close & (arg_gap > COLLISION_DOMAIN_TOL)
        worst = float(arg_gap[collided].max()) if collided.any() else 0.0
        return OracleReport(
            "injectivity_probe", not collided.any(), worst, f"samples={samples}"
        )
    witness = e2_witness(aleph)
    t0 = float(witness.collision_time)
    v1 = np.array([float(c) for c in witness.collision_vector])
    v2 = np.zeros(d)
    image_gap = float(
        np.max(np.abs(phi_numeric(aleph, t0) @ v1 - phi_numeric(aleph, t0) @ v2))
    )
    domain_gap = float(np.max(np.abs(v1 - v2)))
    exhibited = (
        image_gap < COLLISION_IMAGE_TOL
        and domain_gap > COLLISION_DOMAIN_TOL
    )
    return OracleReport(
        "injectivity_probe",
        exhibited,
        image_gap,
        f"collision at t = {witness.collision_time}",
    )
