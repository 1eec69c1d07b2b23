"""Integer matrix utilities: Bezout reduction, diagonalization, kernels.

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


def bezout_row_reduce(ns):
    """Unimodular column reduction of an integer row to (g, 0, ..., 0).

    Returns (g, A) with A a k x k unimodular matrix (list of rows) such that
    row . A = (g, 0, ..., 0) and g = gcd(ns) >= 0.
    """
    k = len(ns)
    n = [int(x) for x in ns]
    a = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def colop(c0, c1, m00, m01, m10, m11):
        for row in a:
            x, y = row[c0], row[c1]
            row[c0], row[c1] = m00 * x + m10 * y, m01 * x + m11 * y
        x, y = n[c0], n[c1]
        n[c0], n[c1] = m00 * x + m10 * y, m01 * x + m11 * y

    first = next((j for j in range(k) if n[j] != 0), None)
    if first is None:
        return 0, a
    if first != 0:
        colop(0, first, 0, 1, 1, 0)
    for j in range(1, k):
        if n[j] == 0:
            continue
        g, x, y = ext_gcd(n[0], n[j])
        colop(0, j, x, -(n[j] // g), y, n[0] // g)
    if n[0] < 0:
        for row in a:
            row[0] = -row[0]
        n[0] = -n[0]
    return n[0], a


def diagonalize(mat):
    """(U, D, V) with U @ mat @ V = D diagonal, U and V unimodular.

    D's nonzero entries occupy the leading diagonal positions.  Divisibility
    between successive entries is not enforced (not needed by the callers).
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    d = [[int(x) for x in row] for row in mat]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def rowop(r0, r1, m00, m01, m10, m11):
        for k in range(n):
            x, y = d[r0][k], d[r1][k]
            d[r0][k], d[r1][k] = m00 * x + m01 * y, m10 * x + m11 * y
        for k in range(m):
            x, y = u[r0][k], u[r1][k]
            u[r0][k], u[r1][k] = m00 * x + m01 * y, m10 * x + m11 * y

    def colop(c0, c1, m00, m01, m10, m11):
        for row in d:
            x, y = row[c0], row[c1]
            row[c0], row[c1] = m00 * x + m10 * y, m01 * x + m11 * y
        for row in v:
            x, y = row[c0], row[c1]
            row[c0], row[c1] = m00 * x + m10 * y, m01 * x + m11 * y

    t = 0
    while True:
        pivot = next(
            (
                (i, j)
                for i in range(t, m)
                for j in range(t, n)
                if d[i][j] != 0
            ),
            None,
        )
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            rowop(t, i, 0, 1, 1, 0)
        if j != t:
            colop(t, j, 0, 1, 1, 0)
        if d[t][t] < 0:
            rowop(t, t, -1, 0, 0, -1)
        while True:
            # divisible entries are cleared by subtraction (leaves row/col t of
            # the pivot untouched); otherwise a Bezout step strictly shrinks
            # the positive pivot, so the loop terminates
            a = d[t][t]
            row_entry = next((i for i in range(m) if i != t and d[i][t] != 0), None)
            if row_entry is not None:
                b = d[row_entry][t]
                if b % a == 0:
                    rowop(t, row_entry, 1, 0, -(b // a), 1)
                else:
                    g, x, y = ext_gcd(a, b)
                    rowop(t, row_entry, x, y, -(b // g), a // g)
                continue
            col_entry = next((j for j in range(n) if j != t and d[t][j] != 0), None)
            if col_entry is not None:
                b = d[t][col_entry]
                if b % a == 0:
                    colop(t, col_entry, 1, -(b // a), 0, 1)
                else:
                    g, x, y = ext_gcd(a, b)
                    colop(t, col_entry, x, -(b // g), y, a // g)
                continue
            break
        t += 1
        if t == min(m, n):
            break
    return u, d, v


def integer_kernel(mat):
    """Basis of {x in Z^n : mat @ x = 0} (a saturated sublattice of Z^n)."""
    return kernel_complement_split(mat)[1]


def kernel_complement_split(mat):
    """Split Z^n = complement + kernel for the integer matrix's kernel.

    Returns (complement_cols, kernel_cols): together the columns form a basis
    of Z^n (a unimodular matrix), and kernel_cols is a basis of the kernel of
    mat.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    _, d, v = diagonalize(mat)
    r = sum(1 for i in range(min(m, n)) if d[i][i] != 0)
    cols = [[v[row][col] for row in range(n)] for col in range(n)]
    return cols[:r], cols[r:]
