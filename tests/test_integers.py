"""Integer matrix utilities: column Hermite reduction, determinants, kernels."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostabelian.integers import (
    bezout_row_reduce,
    det_int,
    ext_gcd,
    hermite_columns,
    integer_kernel,
    is_unimodular,
    kernel_complement_split,
)
from almostabelian.linalg import mat, rank

ints = st.integers(min_value=-9, max_value=9)


def int_matrices(n, m):
    return st.lists(st.lists(ints, min_size=m, max_size=m), min_size=n, max_size=n)


def mat_mul_int(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@given(ints, ints)
def test_ext_gcd(a, b):
    g, x, y = ext_gcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


@given(st.lists(ints, min_size=1, max_size=5))
@settings(max_examples=80)
def test_bezout_row_reduce(ns):
    g, a = bezout_row_reduce(ns)
    assert is_unimodular(a)
    row = [sum(ns[i] * a[i][j] for i in range(len(ns))) for j in range(len(ns))]
    assert row[0] == g
    assert all(x == 0 for x in row[1:])
    assert g == math.gcd(*ns)


def test_det_known():
    assert det_int([[2, 0], [0, 3]]) == 6
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


@given(int_matrices(3, 3), int_matrices(3, 3))
@settings(max_examples=60)
def test_det_multiplicative(a, b):
    assert det_int(mat_mul_int(a, b)) == det_int(a) * det_int(b)


@given(int_matrices(3, 4))
@settings(max_examples=60)
def test_hermite_columns(m):
    h, v, r = hermite_columns(m, 4)
    assert is_unimodular(v)
    assert mat_mul_int(m, v) == h
    # column echelon form: pivots positive and strictly descending, every
    # entry right of a pivot zero, and no pivot in the columns from r on
    last = -1
    for j in range(4):
        nonzero = [i for i in range(3) if h[i][j] != 0]
        if j >= r:
            assert not nonzero
            continue
        assert nonzero and nonzero[0] > last
        last = nonzero[0]
        assert h[last][j] > 0
        assert all(h[last][k] == 0 for k in range(j + 1, 4))
    assert r == rank(mat(m))


@given(int_matrices(2, 4))
@settings(max_examples=60)
def test_integer_kernel(m):
    kern = integer_kernel(m, 4)
    assert len(kern) == 4 - rank(mat(m))
    for col in kern:
        image = [sum(m[i][j] * col[j] for j in range(4)) for i in range(2)]
        assert all(x == 0 for x in image)


@given(int_matrices(2, 4))
@settings(max_examples=60)
def test_kernel_complement_split(m):
    image_part, kernel_part = kernel_complement_split(m, 4)
    combined = [list(row) for row in zip(*(image_part + kernel_part))]
    assert is_unimodular(combined)
    assert len(kernel_part) == 4 - rank(mat(m))
    for col in kernel_part:
        image = [sum(m[i][j] * col[j] for j in range(4)) for i in range(2)]
        assert all(x == 0 for x in image)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_empty_system(n):
    # no equations: the kernel is all of Z^n, the complement is trivial
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    assert integer_kernel([], n) == unit
    assert kernel_complement_split([], n) == ([], unit)
    assert hermite_columns([], n) == ([], unit, 0)
