"""Dense exact linear algebra over the field Q(tau).

Matrices are tuples of row tuples, vectors are tuples; every entry is a
TauScalar.  The package's vector sums, matrix products and linear
combinations are the ones here.  Every linear system in the package is
posed by its caller and row-reduced here, by one kernel, the package's
only elimination over Q(tau): fraction-free Gauss-Jordan elimination
over the integer polynomials Z[tau] (Bareiss), which builds no TauScalar
until its result.  Its entries are minors of the input, so they grow
only as fast as determinants do, and the polynomial arithmetic is that of
``scalars``, whose Z[tau] gcd reduces each result entry: an n x n inverse
with entries a + b*tau costs two to four times more each time n grows by
two, and takes about 0.03 s at n = 10 on a shared 2-vCPU virtual machine.
Integer matrices, over Z rather than Q(tau), are reduced in ``integers``.

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

from .scalars import ONE, ZERO, _zdiv, _zmul, _zsub, as_tau, cleared_rows, zpoly_ratio

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
    c = as_tau(c)
    return tuple(c * x for x in u)


def vec_is_zero(u: Vector) -> bool:
    return all(x.is_zero for x in u)


def mat_vec(a: Matrix, u: Vector) -> Vector:
    return tuple(sum((x * y for x, y in zip(row, u, strict=True) if x and y), ZERO) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col, strict=True) if x and y), ZERO) for col in bt)
        for row in a
    )


def from_columns(cols) -> Matrix:
    return transpose(mat(cols))


def _rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns).

    Fraction-free Gauss-Jordan elimination (E. H. Bareiss, Math. Comp. 22,
    1968).  Each row is first scaled into Z[tau] (``cleared_rows``), which
    keeps the row space.  At the step that finds pivot p in column c, row
    r, every other row x becomes (p*x - x[c]*row_r) / prev, prev the
    previous pivot (1 at first); rows with x[c] = 0 are scaled by p/prev
    too.  The pivot is the entry of lowest degree in the column.

    The division is exact, because every entry of the work matrix is, up
    to sign, a minor of the cleared matrix.  After k pivots, with pivot
    rows R and pivot columns C, entry (i, j) of a row i outside R is the
    (k+1)-minor on rows R + {i} and columns C + {j}, and entry (i, j) of
    a row i in R is the k-minor on rows R and columns C with i's pivot
    column replaced by j (Cramer's rule).  By Sylvester's identity, prev
    times the new minor is p*x[j] - x[c]*row_r[j], so the quotient is that
    minor and lies in Z[tau].  The same update turns each earlier pivot
    entry into p, so at the end every pivot entry is the last pivot d, and
    the RREF is the work matrix over d.
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
        for i in range(nrows):
            if i != r:
                f = work[i][c]
                work[i] = [
                    _zdiv(_zsub(_zmul(p, x), _zmul(f, y)), prev)
                    for x, y in zip(work[i], top)
                ]
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(zpoly_ratio(x, prev) for x in row) for row in work], pivots


def pivot_columns(a: Matrix) -> list:
    """Pivot columns of the reduced row echelon form of a.

    These are the first columns, from the left, that are independent of
    the columns before them.

    >>> pivot_columns(mat([[1, 2, 0], [2, 4, 1]]))
    [0, 2]
    """
    return _rref(a)[1]


def rank(a: Matrix) -> int:
    return len(_rref(a)[1])


def row_space_basis(vectors) -> list:
    """Echelonized basis of the span of the given vectors."""
    rows, pivots = _rref([vec(v) for v in vectors])
    return [rows[i] for i in range(len(pivots))]


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
    rows, pivots = _rref(list(zip(*cols, *bs, strict=True)))
    if any(c >= n for c in pivots):  # a pivot in a target's column
        return None
    out = []
    for k in range(len(bs)):
        x = [ZERO] * n
        for r, c in enumerate(pivots):
            x[c] = rows[r][n + k]
        out.append(tuple(x))
    return out


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("inverse of a non-square matrix")
    aug = [tuple(a[i]) + unit_vec(n, i) for i in range(n)]
    rows, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(r[n:] for r in rows)


def is_invertible(a: Matrix) -> bool:
    # the 0 x 0 matrix is invertible, and has no first row to measure
    n = len(a)
    return n == 0 or (len(a[0]) == n and rank(a) == n)


def nullspace(a: Matrix) -> list:
    """Basis of {x : a x = 0}."""
    # a matrix with no rows has no width, so it reads as 0 x 0; the row
    # form stays because the benchmark calls it so, and W = 0 passes its
    # own basis of normals in subgroups.split_lattice_through
    ncols = len(a[0]) if a else 0
    rows, pivots = _rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [ZERO] * ncols
        x[f] = ONE
        for r, c in enumerate(pivots):
            x[c] = -rows[r][f]
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
