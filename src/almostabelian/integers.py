"""Integer matrix utilities: column Hermite reduction, determinants, kernels.

Used by the lattice layer, where generator recombinations live in GL(Z, k).
All matrices here are plain lists/tuples of Python ints.
"""

from __future__ import annotations


def ext_gcd(a: int, b: int):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def det_int(a) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a) -> bool:
    n = len(a)
    if any(len(row) != n for row in a):
        return False
    if any(int(x) != x for row in a for x in row):
        return False
    return det_int(a) in (1, -1)


def hermite_columns(mat, n: int):
    """Column Hermite reduction (H, V, r) of an integer matrix with n
    columns (n is the shape, so a matrix with no rows has one too).

    V is unimodular and mat @ V = H is in column echelon form: each column
    j < r has a positive pivot in a row strictly below the pivot of column
    j - 1, and the columns from r on are zero.  Row by row, the entries right
    of the current pivot column are folded into it by ext_gcd column
    operations (H. Cohen, GTM 138, Section 2.4); entries left of a pivot are
    not reduced.  Matrices are lists of rows.
    """
    h = [[int(x) for x in row] for row in mat]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def colop(c0, c1, m00, m01, m10, m11):
        for rows in (h, v):
            for row in rows:
                x, y = row[c0], row[c1]
                row[c0], row[c1] = m00 * x + m10 * y, m01 * x + m11 * y

    r = 0
    for row in h:
        first = next((j for j in range(r, n) if row[j] != 0), None)
        if first is None:
            continue
        if first != r:
            colop(r, first, 0, 1, 1, 0)
        for j in range(r + 1, n):
            if row[j] != 0:
                g, x, y = ext_gcd(row[r], row[j])
                colop(r, j, x, -(row[j] // g), y, row[r] // g)
        if row[r] < 0:
            for rows in (h, v):
                for other in rows:
                    other[r] = -other[r]
        r += 1
    return h, v, r


def bezout_row_reduce(ns):
    """Unimodular column reduction of an integer row to (g, 0, ..., 0).

    Returns (g, A) with A a k x k unimodular matrix (list of rows) such that
    row . A = (g, 0, ..., 0) and g = gcd(ns) >= 0.
    """
    h, a, r = hermite_columns([ns], len(ns))
    return (h[0][0] if r else 0), a


def integer_kernel(mat, n: int):
    """Basis of {x in Z^n : mat @ x = 0} (a saturated sublattice of Z^n);
    all of Z^n when mat has no rows.

    >>> integer_kernel([], 2)
    [[1, 0], [0, 1]]
    """
    return kernel_complement_split(mat, n)[1]


def kernel_complement_split(mat, n: int):
    """Split Z^n = complement + kernel for the kernel of the integer
    matrix with n columns.

    Returns (complement_cols, kernel_cols): together the columns form a basis
    of Z^n (a unimodular matrix), and kernel_cols is a basis of the kernel of
    mat.
    """
    _, v, r = hermite_columns(mat, n)
    cols = [list(col) for col in zip(*v)]
    return cols[:r], cols[r:]
