"""Computations made apart from the program, against which the benchmark
checks the program's answers.

Nothing here calls the package's arithmetic.  Exact values are read
through their printed literal (``str``), which the package documents as
a stable grammar, and are evaluated either at rational points
tau = r (a ring homomorphism Q(tau) -> Q wherever the denominator does
not vanish, so an identity in Q(tau) holds at every such r and a wrong
answer fails at all but finitely many) or in floats at tau = 2*pi.
Matrix exponentials come from scipy's ``expm`` on matrices built here
from the group datum.  numpy and scipy are imported where they are first
used, so a process that only builds inputs does not load them.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property

TWO_PI = 2 * math.pi
# Rational stand-ins for tau.  Two points make a false identity pass
# only if both are roots of the same nonzero rational function.
TAU_POINTS = (Fraction(355, 113), Fraction(-17, 5))
FLOAT_TOL = 1e-9

_TERM_RE = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*?)?(tau(?:\^(\d+))?)?")


class CheckFailed(AssertionError):
    """The program's answer disagrees with the reference computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact scalars through their printed literal


def poly_coeffs(text: str) -> dict:
    """Coefficients {power: Fraction} of a printed polynomial in tau."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise CheckFailed(f"cannot read polynomial literal {text!r}")
        sign, coeff, power_word, power = m.groups()
        c = Fraction(coeff) if coeff else Fraction(1)
        if sign == "-":
            c = -c
        k = 0 if power_word is None else int(power or 1)
        if coeff is None and power_word is None:
            raise CheckFailed(f"cannot read polynomial literal {text!r}")
        out[k] = out.get(k, 0) + c
        pos = m.end()
    return out


def split_literal(text: str):
    """(numerator, denominator) coefficient maps of a printed scalar."""
    text = str(text).strip()
    if text.startswith("("):
        depth = 0
        for i, ch in enumerate(text):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0:
                num, rest = text[1:i], text[i + 1 :]
                break
        if not rest.startswith("/(") or not rest.endswith(")"):
            raise CheckFailed(f"cannot read scalar literal {text!r}")
        return poly_coeffs(num), poly_coeffs(rest[2:-1])
    return poly_coeffs(text), {0: Fraction(1)}


def _poly_at(coeffs: dict, x):
    return sum((c * x**k for k, c in coeffs.items()), x * 0)


def at(value, r: Fraction) -> Fraction:
    """The exact scalar evaluated at tau = r."""
    num, den = split_literal(value)
    d = _poly_at(den, r)
    require(d != 0, f"denominator of {value} vanishes at tau = {r}")
    return _poly_at(num, r) / d


def to_float(value) -> float:
    """The exact scalar evaluated at tau = 2*pi."""
    num, den = split_literal(value)
    return float(_poly_at(num, TWO_PI) / _poly_at(den, TWO_PI))


# ---------------------------------------------------------------------------
# rational linear algebra


def frac_rref(rows):
    """Reduced row echelon form over Q: (rows, pivot columns)."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots


def frac_rank(rows) -> int:
    return len(frac_rref(rows)[1])


def frac_solve(cols, target):
    """x with sum_j x_j cols[j] = target over Q, or None (free variables 0)."""
    k = len(cols)
    aug = [[col[r] for col in cols] + [target[r]] for r in range(len(target))]
    work, pivots = frac_rref(aug)
    if k in pivots:
        return None
    x = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        x[c] = work[i][k]
    return x


def int_det(rows) -> Fraction:
    """Determinant by cofactor expansion (small integer matrices only)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    return sum(
        (-1) ** j * rows[0][j] * int_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(n)
        if rows[0][j]
    )


def frac_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def eval_matrix(rows, r: Fraction):
    return [[at(x, r) for x in row] for row in rows]


def close(a, b, tol: float = FLOAT_TOL) -> bool:
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    return bool(np.all(np.abs(a - b) <= tol * scale))


# ---------------------------------------------------------------------------
# the group datum, rebuilt here


class Datum:
    """J, ker J and the torsion generator of a group, built from its blocks.

    The coordinate layout (block order and offsets) is the package's
    documented canonical one, read from ``aleph.blocks``; every matrix is
    assembled here from each block's eigenvalue and size.
    """

    def __init__(self, aleph):
        self.dim = aleph.dim
        j = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        rotations = []
        sizes = []
        for block in aleph.blocks:
            o, n = block.offset, block.size
            a, b = Fraction(block.eigenvalue.re), Fraction(block.eigenvalue.im)
            sizes.append(n)
            if b == 0:
                for k in range(n):
                    j[o + k][o + k] = a
                    if k + 1 < n:
                        j[o + k][o + k + 1] = Fraction(1)
            else:
                rotations.append((a, abs(b)))
                for k in range(n):
                    i = o + 2 * k
                    j[i][i], j[i][i + 1], j[i + 1][i], j[i + 1][i + 1] = a, -b, b, a
                    if k + 1 < n:
                        j[i][i + 2] = j[i + 1][i + 3] = Fraction(1)
        self.j = j
        self.kernel = tuple(c for c in range(self.dim) if all(j[r][c] == 0 for r in range(self.dim)))
        # T is nontrivial only when every block is a pure rotation or zero,
        # all of size one: then t0 = tau/omega0, omega0 the rational gcd of
        # the rotation speeds
        self.omega0 = None
        pure = all(n == 1 for n in sizes) and all(
            block.eigenvalue.re == 0 for block in aleph.blocks
        )
        if rotations and pure:
            omega = rotations[0][1]
            for _, b in rotations[1:]:
                omega = Fraction(
                    math.gcd(omega.numerator * b.denominator, b.numerator * omega.denominator),
                    omega.denominator * b.denominator,
                )
            self.omega0 = omega

    @property
    def t0_turns(self):
        """t0 as a multiple of tau, or None when T is trivial."""
        return None if self.omega0 is None else 1 / self.omega0

    @cached_property
    def jf(self):
        import numpy as np

        return np.array(self.j, dtype=float)

    def exp_tj(self, t: float):
        from scipy.linalg import expm

        return expm(t * self.jf)

    def phi_apply(self, s: float, v):
        """phi(sJ) v through expm of [[sJ, v], [0, 0]] (top-right column)."""
        import numpy as np
        from scipy.linalg import expm

        d = self.dim
        m = np.zeros((d + 1, d + 1))
        m[:d, :d] = s * self.jf
        m[:d, d] = v
        return expm(m)[:d, d]

    # float group law, from the definitions [v,t][w,s] = [v + e^{tJ} w, t + s]
    def exp(self, v, t):
        import numpy as np

        return self.phi_apply(t, np.asarray(v, dtype=float)), t

    def mul(self, g, h):
        return g[0] + self.exp_tj(g[1]) @ h[0], g[1] + h[1]

    def inverse(self, g):
        return -(self.exp_tj(-g[1]) @ g[0]), -g[1]

    def rep_g(self, g):
        import numpy as np

        d = self.dim
        out = np.eye(d + 1)
        out[1:, 0] = g[0]
        out[1:, 1:] = self.exp_tj(g[1])
        return out

    def rep(self, kind: str, g):
        import numpy as np

        base = self.rep_g(g)
        if kind == "G":
            return base
        d = self.dim
        out = np.zeros((d + 2, d + 2))
        out[: d + 1, : d + 1] = base
        if kind == "GI":
            out[d + 1, d + 1] = math.exp(g[1])
        else:
            out[d + 1, 0] = g[1]
            out[d + 1, d + 1] = 1.0
        return out

    def generic_aut(self, delta, gamma, alpha, g):
        """[t*phi(alpha t J) gamma + Delta v, alpha t] for a generic datum."""
        import numpy as np

        v, t = g
        s = alpha * t
        moved = self.phi_apply(s, np.asarray(gamma, dtype=float)) * t + np.asarray(delta, dtype=float) @ v
        return moved, s


def element_float(g):
    """Float coordinates of an exact element, read through its literals."""
    import numpy as np

    return np.array([to_float(c) for c in g.v], dtype=float), to_float(g.t)


def same_element(g, h) -> bool:
    return close(g[0], h[0]) and close([g[1]], [h[1]])


# ---------------------------------------------------------------------------
# closedness: an integer-lattice oracle in floats


def closedness_oracle(basis_rows, lattice_cols, bound: int = 10, tol: float = 1e-9) -> bool:
    """Closed iff the lattice points inside H span the whole slice of H.

    Scans the integer combinations m of the lattice columns with
    |m_i| <= bound, keeps the points lying in span(H) by least squares,
    and compares their rank with dim(H) + rank(N) - dim(H + N).
    """
    import numpy as np

    cols = np.array(lattice_cols, dtype=float).T
    h = np.array([list(row) + [0.0] for row in basis_rows], dtype=float).T
    k = cols.shape[1]
    inside = []
    grids = np.stack(
        np.meshgrid(*[np.arange(-bound, bound + 1)] * k, indexing="ij"), axis=-1
    ).reshape(-1, k)
    for m in grids:
        if not m.any():
            continue
        point = cols @ m
        coeff, *_ = np.linalg.lstsq(h, point, rcond=None)
        if np.linalg.norm(h @ coeff - point) < tol:
            inside.append(point)
    inside_rank = np.linalg.matrix_rank(np.array(inside), tol=1e-8) if inside else 0
    slice_dim = (
        np.linalg.matrix_rank(h, tol=1e-8)
        + np.linalg.matrix_rank(cols, tol=1e-8)
        - np.linalg.matrix_rank(np.hstack([h, cols]), tol=1e-8)
    )
    return bool(inside_rank == slice_dim)
