"""Workload ``linalg-growth``: exact rank, solve, inverse and nullspace
over Q(tau) as the size grows.

Each round runs the four operations, on three matrices each, at every
size: integer entries at n = 2, 3, 4, 6, and entries a + b*tau at n = 2, 3,
4.  Larger sizes (an inverse takes about 0.2 s at n = 10 with integer
entries, 0.6 s at n = 6 and 30 s at n = 10 with a + b*tau) are timed by
the traced run's reference figures instead.  The full-rank matrices are
random; rank and nullspace run on n - 2 random rows (1 at n = 2) plus
integer combinations of them, shuffled, so the rank is known by
construction.  The seed picks the entries; sizes and kinds never change.
"""

from __future__ import annotations

from fractions import Fraction

from core import Op, Rng
from reference import TAU_POINTS, eval_matrix, frac_matmul, frac_rank, require

# n = 3 with integer entries fills the gap between the operations that cost
# about 2.5 ms (n = 4 rank and nullspace, n = 2 inverse with tau) and those
# that cost 5 ms and more: without it the median of the round fell on that
# gap, and the seed's draw of the six matrices beside it moved op_p50_ms by
# a tenth from run to run.
RATIONAL_SIZES = (2, 3, 4, 6)
TAU_SIZES = (2, 3, 4)


# Three matrices of each size and kind, so that no single draw sets the
# median.  A round takes about a second, so a run has a dozen rounds or more
# to take each operation's median time from, and that is why the sizes stop
# where they do.
COPIES = 3


def build(aa, seed: int) -> list:
    rng = Rng(seed)
    ops = []
    for _ in range(COPIES):
        for field, sizes in (("rat", RATIONAL_SIZES), ("tau", TAU_SIZES)):
            for n in sizes:
                ops.extend(_size_ops(aa, rng, field, n))
    return ops


# A matrix is kept twice: as the program's scalars, and as coefficient
# pairs (a, b) meaning a + b*tau, from which the checks evaluate it.


def _entry(rng, field):
    """A nonzero integer, or a + b*tau with a, b nonzero: no draw is sparse."""
    if field == "rat":
        return (Fraction(rng.choice((-1, 1)) * rng.randint(1, 9)), Fraction(0))
    return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5)) for _ in range(2))


def _at(pairs, r):
    return [[a + b * r for a, b in row] for row in pairs]


def program_matrix(aa, pairs):
    return tuple(tuple(aa.TauScalar((a, b)) for a, b in row) for row in pairs)


def full_rank(rng, field, n):
    while True:
        pairs = [[_entry(rng, field) for _ in range(n)] for _ in range(n)]
        if frac_rank(_at(pairs, TAU_POINTS[0])) == n:
            return pairs


def deficient(rng, field, n, r):
    """r random independent rows and n - r integer combinations of them,
    rows shuffled: rank r exactly, and elimination meets dense rows."""
    while True:
        rows = [[_entry(rng, field) for _ in range(n)] for _ in range(r)]
        if frac_rank(_at(rows, TAU_POINTS[0])) == r:
            break
    for _ in range(n - r):
        coeffs = [rng.choice((-2, -1, 1, 2)) for _ in range(r)]
        rows.append([(sum(c * row[j][0] for c, row in zip(coeffs, rows[:r])),
                      sum(c * row[j][1] for c, row in zip(coeffs, rows[:r])))
                     for j in range(n)])
    rng.shuffle(rows)
    return rows


def _size_ops(aa, rng, field, n):
    la = aa.linalg  # looked up at call time, so a traced run sees the wrappers
    full = full_rank(rng, field, n)
    r = max(1, n - 2)
    low = deficient(rng, field, n, r)
    x0 = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
    b = [(sum(row[j][0] * x0[j] for j in range(n)), sum(row[j][1] * x0[j] for j in range(n)))
         for row in full]
    a_full, a_low = program_matrix(aa, full), program_matrix(aa, low)
    rhs = tuple(aa.TauScalar(p) for p in b)
    tag = f"{field}_n{n}"
    return [
        Op(f"inverse_{tag}", lambda: la.inverse(a_full), _check_inverse(full)),
        Op(f"solve_{tag}", lambda: la.solve(a_full, rhs), _check_solve(full, b)),
        Op(f"rank_{tag}", lambda: la.rank(a_low), _check_rank(r)),
        Op(f"nullspace_{tag}", lambda: la.nullspace(a_low), _check_nullspace(low, n - r)),
    ]


def _check_inverse(pairs):
    n = len(pairs)
    eye = [[Fraction(i == j) for j in range(n)] for i in range(n)]

    def check(inv):
        for r in TAU_POINTS:
            require(frac_matmul(_at(pairs, r), eval_matrix(inv, r)) == eye, "A * A^-1 != I")
    return check


def _check_solve(pairs, b):
    def check(x):
        require(x is not None, "solve reported a consistent system as inconsistent")
        for r in TAU_POINTS:
            lhs = frac_matmul(_at(pairs, r), [[v] for v in eval_matrix([x], r)[0]])
            require([row[0] for row in lhs] == [p + q * r for p, q in b], "A x != b")
    return check


def _check_rank(expected):
    def check(result):
        require(result == expected, f"rank {result}, built with rank {expected}")
    return check


def _check_nullspace(pairs, dim):
    def check(basis):
        require(len(basis) == dim, f"nullspace has {len(basis)} vectors, expected {dim}")
        for r in TAU_POINTS:
            vecs = eval_matrix(basis, r)
            require(frac_rank(vecs) == dim, "nullspace vectors are dependent")
            prod = frac_matmul(_at(pairs, r), [list(c) for c in zip(*vecs)])
            require(all(x == 0 for row in prod for x in row), "A x != 0 for a nullspace vector")
    return check
