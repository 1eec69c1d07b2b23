"""Dense exact linear algebra over the field Q(tau).

Matrices are tuples of row tuples, vectors are tuples; every entry is a
TauScalar.  The package's vector sums, matrix products and linear
combinations are the ones here.  Every linear system in the package is
posed by its caller and row-reduced here, by the package's only
elimination over Q(tau): fraction-free elimination over the integer
polynomials Z[tau] (Bareiss, ``_bareiss``).  Its entries are minors of
the input, so they grow only as fast as determinants do: an n x n inverse
with entries a + b*tau costs two to four times more each time n grows by
two, and takes about 0.03 s at n = 10 on a shared 2-vCPU virtual machine.
A row whose entry in the pivot column is zero is only scaled, or left as
it is, so a sparse system costs about as much as its nonzero entries.
Integer matrices, over Z rather than Q(tau), are reduced in ``integers``.

Each caller of the elimination builds a TauScalar, reduced by one Z[tau]
gcd (``scalars.zpoly_ratio``), only for an entry it returns: ``rank``,
``pivot_columns`` and ``is_invertible`` eliminate forward only and build
none, ``solve_columns`` builds the target columns of the pivot rows,
``inverse`` the right half, ``nullspace`` the free columns and
``row_space_basis`` the pivot rows.

The products ``mat_vec``, ``mat_mul`` and ``vec_scale`` work over Z[tau]
too.  Each operand -- a vector, a row of the left factor, a column of the
right one -- is put over one common denominator once
(``scalars.over_common_denominator``), and each result entry is summed
from polynomial products and built once, as one TauScalar reduced by one
gcd (``scalars.zpoly_ratio``), rather than by a TauScalar and a gcd per
product and partial sum.  Their operands may hold ints and Fractions.

Matrices are row tuples, but ``solve_columns`` takes the columns of its
system: the unknowns are the columns and the equations the entries of the
targets, so a system with no unknowns or no equations is an ordinary
input.  The one remaining 0 x 0 reading is ``nullspace``'s: a matrix with
no rows has no width, so ``nullspace(())`` is empty rather than a basis of
Q(tau)^n, and ``subgroups.split_lattice_through`` passes ``identity(d)``
for W = 0 itself.  Its row form stays because the benchmark calls it so.

>>> nullspace(())
[]
>>> solve_columns([], [()])
[()]
"""

from __future__ import annotations

from .scalars import (
    ONE,
    ZERO,
    _zadd,
    _zdiv,
    _zmul,
    _zsub,
    as_tau,
    cleared_rows,
    over_common_denominator,
    zpoly_ratio,
)

Vector = tuple
Matrix = tuple


def vec(entries) -> Vector:
    return tuple(as_tau(e) for e in entries)


def mat(rows) -> Matrix:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def identity(n: int) -> Matrix:
    return tuple(unit_vec(n, i) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(x + y for x, y in zip(u, v, strict=True))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(x - y for x, y in zip(u, v, strict=True))


def vec_scale(c, u: Vector) -> Vector:
    (cp,), cd = over_common_denominator((c,))
    up, ud = over_common_denominator(u)
    return tuple(_entry(_zmul(cp, p), cd, ud) for p in up)


def vec_is_zero(u: Vector) -> bool:
    return all(x.is_zero for x in u)


def _cleared_terms(entries) -> tuple:
    """The right factor's column, or the vector, over its common
    denominator: the nonzero terms (k, numerator k), and the denominator."""
    polys, den = over_common_denominator(entries)
    return [(k, p) for k, p in enumerate(polys) if p], den


def _cleared_row(row, height: int) -> tuple:
    """A row of the left factor over its common denominator; its length
    must be the right factor's height."""
    if len(row) != height:
        raise ValueError(f"a row of length {len(row)} times a height of {height}")
    return over_common_denominator(row)


def _dot(p, terms) -> tuple:
    """Sum of p[k] * y over the terms (k, y), over Z[tau]: only the
    nonzero entries of the right factor are visited."""
    s = ()
    for k, y in terms:
        x = p[k]
        if x:
            s = _zadd(s, _zmul(x, y))
    return s


def _entry(num, den1, den2):
    """The result entry num / (den1 * den2)."""
    return zpoly_ratio(num, _zmul(den1, den2)) if num else ZERO


def mat_vec(a: Matrix, u: Vector) -> Vector:
    terms, ud = _cleared_terms(u)
    out = []
    for row in a:
        rp, rd = _cleared_row(row, len(u))
        out.append(_entry(_dot(rp, terms), rd, ud))
    return tuple(out)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = [_cleared_terms(col) for col in zip(*b)]
    if not cols:  # b has no columns, so every row of a gives an empty row
        return tuple(() for _ in a)
    out = []
    for row in a:
        rp, rd = _cleared_row(row, len(b))
        out.append(tuple(_entry(_dot(rp, terms), rd, cd) for terms, cd in cols))
    return tuple(out)


def from_columns(cols) -> Matrix:
    return transpose(mat(cols))


def _bareiss(rows, full: bool = True):
    """Fraction-free elimination of the rows; returns the Z[tau] work
    matrix, its pivot columns and the last pivot d (1 for no pivot).

    Gauss-Jordan elimination over Z[tau] (E. H. Bareiss, Math. Comp. 22,
    1968).  Each row is first scaled into Z[tau] (``cleared_rows``), which
    keeps the row space.  At the step that finds pivot p in column c, row
    r, every other row x becomes (p*x - x[c]*row_r) / prev, prev the
    previous pivot (1 at first).  A row with x[c] = 0 is only scaled, as
    p*x / prev, and left as it is when p = prev, so a sparse matrix costs
    little more than its nonzero entries.  The pivot is the entry of lowest
    degree in the column.

    The division is exact, because every entry of the work matrix is, up
    to sign, a minor of the cleared matrix.  After k pivots, with pivot
    rows R and pivot columns C, entry (i, j) of a row i outside R is the
    (k+1)-minor on rows R + {i} and columns C + {j}, and entry (i, j) of
    a row i in R is the k-minor on rows R and columns C with i's pivot
    column replaced by j (Cramer's rule).  By Sylvester's identity, prev
    times the new minor is p*x[j] - x[c]*row_r[j], so the quotient is that
    minor and lies in Z[tau].  The same update turns each earlier pivot
    entry into p, so at the end every pivot entry is d, and the RREF is
    the work matrix over d.

    With full false it runs forward only, never updating the rows above
    the pivot row; the rows below take the same steps, so the pivots agree.
    """
    work = cleared_rows(rows)
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    prev = (1,)
    r = 0
    for c in range(ncols):
        rest = [i for i in range(r, nrows) if work[i][c]]
        if not rest:
            continue
        pivot = min(rest, key=lambda i: len(work[i][c]))
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        p = top[c]
        for i in range(0 if full else r + 1, nrows):
            row = work[i]
            f = row[c]
            if i == r or (not f and p == prev):
                continue
            if f:
                work[i] = [_zdiv(_zsub(_zmul(p, x), _zmul(f, y)), prev) for x, y in zip(row, top)]
            else:
                work[i] = [_zdiv(_zmul(p, x), prev) for x in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots, prev


def _over(x, d):
    """The RREF entry x / d of a work matrix entry x."""
    return zpoly_ratio(x, d) if x else ZERO


def pivot_columns(a: Matrix) -> list:
    """Pivot columns of the reduced row echelon form of a.

    These are the first columns, from the left, that are independent of
    the columns before them.

    >>> pivot_columns(mat([[1, 2, 0], [2, 4, 1]]))
    [0, 2]
    """
    return _bareiss(a, full=False)[1]


def rank(a: Matrix) -> int:
    return len(_bareiss(a, full=False)[1])


def row_space_basis(vectors) -> list:
    """Echelonized basis of the span of the given vectors."""
    work, pivots, d = _bareiss([vec(v) for v in vectors])
    return [tuple(_over(x, d) for x in row) for row in work[: len(pivots)]]


def in_span(vectors, target) -> bool:
    """Whether target lies in the span of the given vectors."""
    return solve_columns(vectors, (target,)) is not None


def solve(a: Matrix, b: Vector):
    """One exact solution of a x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    sols = solve_columns(transpose(a), (b,))
    return None if sols is None else sols[0]


def solve_columns(cols, bs):
    """Coefficients x with sum_j x_j * cols[j] = b, for each b in bs.

    The unknowns are the columns and the equations are the entries of the
    targets, so k columns of height 0 give k-wide zero solutions and no
    columns give empty ones, or None for a nonzero target.  Free unknowns
    are set to zero; None if some b lies outside the span of the columns.

    >>> solve_columns([vec([1, 1]), vec([0, 1])], [vec([2, 3])])
    [(TauScalar('2'), TauScalar('1'))]
    """
    cols, bs = [vec(c) for c in cols], [vec(b) for b in bs]
    n = len(cols)
    work, pivots, d = _bareiss(list(zip(*cols, *bs, strict=True)))
    if any(c >= n for c in pivots):  # a pivot in a target's column
        return None
    rows = dict(zip(pivots, work))  # pivot column -> its row
    return [
        tuple(_over(rows[c][k], d) if c in rows else ZERO for c in range(n))
        for k in range(n, n + len(bs))
    ]


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("inverse of a non-square matrix")
    aug = [tuple(a[i]) + unit_vec(n, i) for i in range(n)]
    work, pivots, d = _bareiss(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(_over(x, d) for x in row[n:]) for row in work)


def is_invertible(a: Matrix) -> bool:
    # the 0 x 0 matrix is invertible, and has no first row to measure
    n = len(a)
    return n == 0 or (len(a[0]) == n and rank(a) == n)


def nullspace(a: Matrix) -> list:
    """Basis of {x : a x = 0}."""
    ncols = len(a[0]) if a else 0
    work, pivots, d = _bareiss(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [ZERO] * ncols
        x[f] = ONE
        for r, c in enumerate(pivots):
            x[c] = _over(_zsub((), work[r][f]), d)
        basis.append(tuple(x))
    return basis


def span_intersection(vectors_a, vectors_b) -> list:
    """Basis of span(vectors_a) intersected with span(vectors_b)."""
    va = [vec(v) for v in vectors_a]
    vb = [vec(v) for v in vectors_b]
    a = from_columns(va)
    stacked = from_columns(va + [vec_scale(-1, v) for v in vb])
    combos = [mat_vec(a, rel[: len(va)]) for rel in nullspace(stacked)]
    return row_space_basis([c for c in combos if not vec_is_zero(c)])
