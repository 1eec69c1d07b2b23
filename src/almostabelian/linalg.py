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
none, ``solve_columns`` builds the solutions, ``inverse`` the right half,
``nullspace`` the free columns and ``row_space_basis`` the pivot rows.  On
rows already over Z[tau] ``cleared_rank``, ``cleared_intersection``,
``cleared_solve`` and ``cleared_integer_solve`` build none.

A solve and an inverse are one routine on held rows: ``cleared_solve``
eliminates rows [A | B] of polynomials as they stand and returns the
solutions of A x = b as numerators over the last pivot.  ``solve_columns``
clears the rows [cols | bs] and calls it, ``inverse`` the rows [a | id];
``cleared_integer_solve`` calls it on two held matrices over a shared
denominator, ``lattices._kernel_shear`` on a lattice's held rows, and
``reps.build_P`` on the rows [C | den id | den id], which complete the
generator columns C and invert the completed matrix at once.

The products ``mat_vec``, ``mat_mul`` and ``vec_scale`` work over Z[tau]
too.  Each operand -- a vector, a row of the left factor, a column of the
right one -- is put over one common denominator once
(``scalars.over_common_denominator``), and each result entry is summed
from polynomial products and built once, as one TauScalar reduced by one
gcd (``scalars.zpoly_ratio``), rather than by a TauScalar and a gcd per
product and partial sum.  Their operands may hold ints and Fractions.
``autos.apply_aut``, the representations, and the lattice and subgroup
layers call them; the exponentials of ``expmap`` build no matrix to
multiply, and sum their Taylor terms on a held vector instead
(``cleared_series``).

A matrix can also be held cleared, by its columns of Z[tau] polynomials
over one denominator (``cleared_columns``); a lattice holds its generator
matrix so, cleared once where it is built (``lattices``).  On that form
``cleared_product`` multiplies by a matrix, cleared once (the image of a
lattice under an automorphism, and the membership conditions of
``subgroups.split_lattice_through``), and ``cleared_int_product`` by an
integer matrix, keeping the denominator; and
``cleared_integer_solve`` solves two held matrices as they stand and
reads an integer solution as a constant quotient of the last pivot, with
no TauScalar built.  ``vec_over`` reads a held column back as TauScalars.
Rows of polynomials, such as a held matrix's columns, have a rank
(``cleared_rank``: the representability test of ``lattices``) and span
intersections (``cleared_intersection``: the closedness test of
``subgroups``), each one forward elimination of the rows as they stand.
No module outside this one calls the elimination.

Matrices are row tuples, but ``solve_columns`` takes the columns of its
system: the unknowns are the columns and the equations the entries of the
targets, so a system with no unknowns or no equations is an ordinary
input, and ``cleared_product`` reads a left factor with no rows as 0 x n.
The one remaining 0 x 0 reading is ``nullspace``'s: a matrix with no rows
has no width, so ``nullspace(())`` is empty rather than a basis of
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
    """Fraction-free elimination of the rows, each first scaled into
    Z[tau] (``cleared_rows``), which keeps the row space; see _eliminate."""
    return _eliminate(cleared_rows(rows), full)


def _eliminate(work, full: bool):
    """Fraction-free elimination of rows of Z[tau] polynomials, in place;
    returns the work matrix, its pivot columns and the last pivot d (1 for
    no pivot).

    Gauss-Jordan elimination over Z[tau] (E. H. Bareiss, Math. Comp. 22,
    1968).  At the step that finds pivot p in column c, row
    r, every other row x becomes (p*x - x[c]*row_r) / prev, prev the
    previous pivot (1 at first).  A row with x[c] = 0 is only scaled, as
    p*x / prev, and left as it is when p = prev, so a sparse matrix costs
    little more than its nonzero entries.  The pivot is the entry of lowest
    degree in the column.

    The division is exact, because every entry of the work matrix is, up
    to sign, a minor of the input matrix.  After k pivots, with pivot
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
    The rows [cols | bs] are cleared and solved as held (``cleared_solve``).

    >>> solve_columns([vec([1, 1]), vec([0, 1])], [vec([2, 3])])
    [(TauScalar('2'), TauScalar('1'))]
    """
    cols, bs = [vec(c) for c in cols], [vec(b) for b in bs]
    solved = cleared_solve(cleared_rows(list(zip(*cols, *bs, strict=True))), len(cols), len(bs))
    return None if solved is None else [vec_over(x, solved[1]) for x in solved[0]]


def inverse(a: Matrix) -> Matrix:
    """The inverse of a, whose columns solve a x = e_j: the rows [a | id],
    cleared and solved as held (``cleared_solve``)."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("inverse of a non-square matrix")
    solved = cleared_solve(cleared_rows([tuple(a[i]) + unit_vec(n, i) for i in range(n)]), n, n)
    if solved is None:  # a pivot in id's half: a has rank below n
        raise ValueError("matrix is singular")
    return transpose([vec_over(x, solved[1]) for x in solved[0]])


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


# ---------------------------------------------------------------------------
# a matrix held by its columns over Z[tau]: (polys, den), column j of the
# matrix being the polynomials polys[j] over the one denominator den


def cleared_columns(cols) -> tuple:
    """The columns over one common denominator, (polys, den): all their
    entries are cleared at once (``scalars.over_common_denominator``)."""
    h = len(cols[0]) if cols else 0
    flat, den = over_common_denominator([x for col in cols for x in col])
    return tuple(tuple(flat[j * h : (j + 1) * h]) for j in range(len(cols))), den


def vec_over(polys, den) -> Vector:
    """The vector of the entries p / den, one gcd for each nonzero p."""
    return tuple(_over(p, den) for p in polys)


def _combinations(cols, weights) -> tuple:
    """The column sum_i w[i] * cols[i] over Z[tau] for each weight vector
    w; a zero weight or entry is skipped."""
    if not cols:  # a matrix with no rows: each combination has height 0
        return tuple(() for _ in weights)
    h = len(cols[0])
    out = []
    for w in weights:
        s = [()] * h
        for c, col in zip(w, cols, strict=True):
            if c:
                s = [_zadd(x, _zmul(c, y)) if y else x for x, y in zip(s, col)]
        out.append(tuple(s))
    return tuple(out)


def cleared_product(a: Matrix, cleared) -> tuple:
    """a times the held columns, held the same way: a is cleared once, each
    column's image combines a's columns with its entries as weights, and
    the denominator is the product of the two known ones."""
    a_cols, a_den = cleared_columns(tuple(zip(*a)))
    polys, den = cleared
    return _combinations(a_cols, polys), _zmul(a_den, den)


def cleared_int_product(cleared, coeffs) -> tuple:
    """The held columns times the k x j integer matrix coeffs, over the same
    denominator: column j is sum_i coeffs[i][j] * column i."""
    polys, den = cleared
    weights = [tuple((c,) if c else () for c in w) for w in zip(*coeffs)]
    return _combinations(polys, weights), den


def cleared_series(xs, t, weights, cells) -> tuple:
    """The held vector sum_j w_j t^j R_j N^j x as (numerators, den): x is
    held as the polynomials xs in n cells of m entries, N is the shift
    (N x)_k = x_{k+1}, and term j has the integer weight w_j and the m x m
    integer cell R_j.  t = P/Q is cleared once, and cell k is
    sum_j w_j P^j Q^(n-1-j) R_j x_{k+j} over den = Q^(n-1); no TauScalar
    is built.  The block exponentials of expmap are such sums.

    >>> from .scalars import TAU
    >>> cleared_series([(1,), (0, 1)], TAU / 2, [1, 1], [((1,),)] * 2)
    ([(2, 0, 1), (0, 2)], (2,))
    """
    (p,), q = over_common_denominator((t,))
    n, m = len(cells), len(cells[0])
    ps, qs = [(1,)], [(1,)]
    for _ in range(n - 1):
        ps.append(_zmul(ps[-1], p))
        qs.append(_zmul(qs[-1], q))
    ws = [_zmul((w,), _zmul(ps[j], qs[n - 1 - j])) for j, w in enumerate(weights)]
    out = []
    for k in range(n):
        acc = [()] * m
        for j in range(n - k):
            for r, x in enumerate(xs[m * (k + j) : m * (k + j + 1)]):
                y = _zmul(ws[j], x)
                for i, row in enumerate(cells[j]):
                    if row[r] and y:
                        acc[i] = _zadd(acc[i], y if row[r] == 1 else _zmul((row[r],), y))
        out.extend(acc)
    return out, qs[-1]


def cleared_rank(rows) -> int:
    """Rank of rows of Z[tau] polynomials as they stand: one forward
    elimination, no clearing and no TauScalar.

    >>> cleared_rank([[(1,), (0, 1)], [(2,), (0, 2)], [(), (3,)]])
    2
    """
    return len(_eliminate(list(rows), False)[1])


def cleared_intersection(a_rows, b_rows) -> list:
    """Rows of Z[tau] polynomials, in echelon form, spanning the
    intersection of the spans of two sets of such rows of one length: one
    forward elimination of the rows as they stand.

    Zassenhaus' elimination of [a | a ; b | 0]: a row of its row space
    with zero left half is (sum c_i a_i + sum e_j b_j | sum c_i a_i) with
    sum c_i a_i = -sum e_j b_j, so the right halves of those rows are the
    intersection.  In echelon form they are the rows whose pivot lies in
    the right half, independent because their pivots differ.

    >>> cleared_intersection([[(1,), ()], [(), (1,)]], [[(2,), (2,)]])
    [[(-2,), (-2,)]]
    """
    if not a_rows or not b_rows:
        return []
    w = len(a_rows[0])
    zeros = [()] * w
    stacked = [[*a, *a] for a in a_rows] + [[*b, *zeros] for b in b_rows]
    work, pivots, _ = _eliminate(stacked, False)
    return [row[w:] for row, c in zip(work, pivots) if c >= w]


def cleared_solve(rows, k, targets):
    """Solutions of rows [A | B] of Z[tau] polynomials, A the first k
    columns and B the next ``targets``: for each column b of B the x with
    A x = b, free unknowns set to zero, as k numerators over one
    denominator d.  Returns (xs, d), or None when some b lies outside the
    span of A's columns.  One full elimination of the rows as they stand
    (``_eliminate``): x_j for a pivot column j is its row's entry in b's
    column, over the last pivot d.  No TauScalar is built.

    >>> cleared_solve([[(1,), (2,)], [(1,), (0, 1)]], 1, 1) is None
    True
    >>> cleared_solve([[(2,), (0, 4)]], 1, 1)
    ([((0, 4),)], (2,))
    """
    work, pivots, d = _eliminate(list(rows), True)
    if any(c >= k for c in pivots):  # a pivot in a target's column
        return None
    at = dict(zip(pivots, work))  # pivot column -> its row
    xs = [tuple(at[c][t] if c in at else () for c in range(k)) for t in range(k, k + targets)]
    return xs, d


def cleared_integer_solve(cleared, targets):
    """Integers x with sum_j x_j * column j = b for each column b of the
    held targets, free unknowns set to zero as in solve_columns: one tuple
    of ints per target, or None when some target has none.

    With the columns P / p and the targets Q / q, the system is q*P x = p*Q
    over Z[tau], solved as it stands (``cleared_solve``).  Each x_j is an
    integer exactly when d divides its numerator with a constant quotient.

    >>> two = cleared_columns([vec([2, 0])])
    >>> cleared_integer_solve(two, cleared_columns([vec([4, 0]), vec([-2, 0])]))
    [(2,), (-1,)]
    >>> cleared_integer_solve(two, cleared_columns([vec([1, 0])])) is None
    True
    """
    (cols, p), (bs, q) = cleared, targets
    if p != q:
        cols = [[_zmul(q, x) for x in col] for col in cols]
        bs = [[_zmul(p, x) for x in b] for b in bs]
    solved = cleared_solve(list(zip(*cols, *bs, strict=True)), len(cols), len(bs))
    if solved is None:
        return None
    xs, d = solved
    out = []
    for x in xs:
        x = [_zdiv(c, d) for c in x]
        if any(c is None or len(c) > 1 for c in x):
            return None
        out.append(tuple(c[0] if c else 0 for c in x))
    return out
