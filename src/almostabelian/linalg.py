"""Dense exact linear algebra over the field Q(tau).

Matrices are tuples of row tuples, vectors are tuples; every entry is a
TauScalar.  Every linear system in the package is posed by its caller and
row-reduced here, by one kernel: fraction-free Gauss-Jordan elimination
over the integer polynomials Z[tau] (Bareiss), which builds no TauScalar
until its result.  Its entries are minors of the input, so they grow
only as fast as determinants do: an n x n inverse with entries a + b*tau
costs four to six times more each time n grows by two, and takes about
0.2 s at n = 10 on a shared 2-vCPU virtual machine.
"""

from __future__ import annotations

from itertools import zip_longest

from .scalars import TauScalar, as_tau, cleared_rows, zpoly_ratio

Vector = tuple
Matrix = tuple

_ZERO = TauScalar(0)
_ONE = TauScalar(1)


def vec(entries) -> Vector:
    return tuple(as_tau(e) for e in entries)


def mat(rows) -> Matrix:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def zero_vec(n: int) -> Vector:
    return (_ZERO,) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def identity(n: int) -> Matrix:
    return tuple(unit_vec(n, i) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


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
    return tuple(sum((x * y for x, y in zip(row, u, strict=True)), _ZERO) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col, strict=True) if x and y), _ZERO) for col in bt)
        for row in a
    )


def from_columns(cols) -> Matrix:
    return transpose(mat(cols))


def _zmul(a, b):
    """Product in Z[tau], in the form of ``scalars.cleared_rows``."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _zsub(a, b):
    if not b:
        return a
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _zdiv(a, b):
    """Quotient a / b in Z[tau] of a division known to be exact."""
    if len(b) == 1:
        return a if b[0] == 1 else tuple(x // b[0] for x in a)
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    quot = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        q = rem[k] // lead
        if q:
            quot[k - db] = q
            for j in range(db + 1):
                rem[k - db + j] -= q * b[j]
    return tuple(quot)


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
    if not a:
        return 0
    return len(_rref(a)[1])


def row_space_basis(vectors) -> list:
    """Echelonized basis of the span of the given vectors."""
    vectors = [vec(v) for v in vectors]
    if not vectors:
        return []
    rows, pivots = _rref(vectors)
    return [rows[i] for i in range(len(pivots))]


def echelon_residual(echelon, target) -> Vector:
    """What is left of target after elimination by row_space_basis rows.

    The residual is linear in target and vanishes exactly when target
    lies in the span of the rows.
    """
    out = list(target)
    for row in echelon:
        p = next(i for i, x in enumerate(row) if not x.is_zero)
        c = out[p]
        if not c.is_zero:
            for i in range(len(out)):
                out[i] = out[i] - c * row[i]
    return vec(out)


def in_span(vectors, target) -> bool:
    """Whether target lies in the span of the given vectors."""
    vectors = list(vectors)
    target = vec(target)
    if not vectors:
        return vec_is_zero(target)
    return solve(from_columns(vectors), target) is not None


def solve(a: Matrix, b: Vector):
    """One exact solution of a x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    sols = solve_columns(a, (tuple(b),))
    return None if sols is None else sols[0]


def solve_columns(a: Matrix, bs):
    """Solve a x = b for each b in bs; None if any system is inconsistent."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    bs = [vec(b) for b in bs]
    aug = [tuple(a[i]) + tuple(b[i] for b in bs) for i in range(nrows)]
    rows, pivots = _rref(aug)
    main_pivots = [p for p in pivots if p < ncols]
    if len(main_pivots) != len(pivots):
        return None
    out = []
    for k in range(len(bs)):
        x = [_ZERO] * ncols
        for r, c in enumerate(main_pivots):
            x[c] = rows[r][ncols + k]
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
    n = len(a)
    return n == 0 or (len(a[0]) == n and rank(a) == n)


def nullspace(a: Matrix) -> list:
    """Basis of {x : a x = 0}."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        return [unit_vec(ncols, j) for j in range(ncols)]
    rows, pivots = _rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [_ZERO] * ncols
        x[f] = _ONE
        for r, c in enumerate(pivots):
            x[c] = -rows[r][f]
        basis.append(tuple(x))
    return basis


def span_intersection(vectors_a, vectors_b) -> list:
    """Basis of span(vectors_a) intersected with span(vectors_b)."""
    va = [vec(v) for v in vectors_a]
    vb = [vec(v) for v in vectors_b]
    if not va or not vb:
        return []
    stacked = from_columns(va + [vec_scale(-1, v) for v in vb])
    out = []
    for rel in nullspace(stacked):
        combo = zero_vec(len(va[0]))
        for c, v in zip(rel[: len(va)], va):
            combo = vec_add(combo, vec_scale(c, v))
        if not vec_is_zero(combo):
            out.append(combo)
    return row_space_basis(out)
