"""Exact dense linear algebra over the tau field."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostabelian.linalg import (
    from_columns,
    identity,
    in_span,
    inverse,
    is_invertible,
    mat,
    mat_mul,
    mat_vec,
    nullspace,
    pivot_columns,
    rank,
    row_space_basis,
    solve,
    span_intersection,
    vec,
    vec_is_zero,
)
from almostabelian.scalars import TAU

entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def matrices(n, m):
    return st.lists(
        st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n
    ).map(mat)


def test_rank_and_rref():
    a = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(a) == 2
    assert rank(identity(4)) == 4
    assert rank(mat([[0, 0], [0, 0]])) == 0


def test_solve_consistent_and_inconsistent():
    a = mat([[1, 2], [3, 4]])
    x = solve(a, vec([5, 11]))
    assert mat_vec(a, x) == vec([5, 11])
    singular = mat([[1, 2], [2, 4]])
    assert solve(singular, vec([1, 0])) is None
    assert solve(singular, vec([1, 2])) is not None


def test_shapes_must_agree():
    a = mat([[1, 2], [3, 4]])
    for u in (vec([1]), vec([1, 2, 3])):
        with pytest.raises(ValueError):
            mat_vec(a, u)
    for b in (identity(1), identity(3)):
        with pytest.raises(ValueError):
            mat_mul(a, b)


def test_inverse_known():
    a = mat([[2, 1], [1, 1]])
    assert mat_mul(inverse(a), a) == identity(2)
    with pytest.raises(ValueError):
        inverse(mat([[1, 2], [2, 4]]))


def test_tau_entries():
    a = mat([[TAU, 1], [0, TAU]])
    inv = inverse(a)
    assert mat_mul(a, inv) == identity(2)
    assert inv[0][1] == -1 / (TAU * TAU)


def test_nullspace_annihilates():
    a = mat([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert vec_is_zero(mat_vec(a, v))


def test_pivot_columns_skip_dependent_column():
    assert pivot_columns(mat([[1, 2, 0], [2, 4, 1]])) == [0, 2]
    assert pivot_columns(mat([[1, TAU, 1], [0, 0, 1]])) == [0, 2]


def test_pivot_columns_skip_zero_column():
    assert pivot_columns(mat([[0, 1, 0], [0, 0, 3]])) == [1, 2]


def test_pivot_columns_empty_matrix():
    assert pivot_columns(()) == []
    assert pivot_columns(mat([[0, 0]])) == []


def test_in_span():
    basis = [vec([1, 0, 1]), vec([0, 1, 0])]
    assert in_span(basis, vec([2, 3, 2]))
    assert not in_span(basis, vec([1, 0, 0]))


def test_span_intersection():
    left = [vec([1, 0]), vec([0, 1])]
    right = [vec([1, 1])]
    inter = span_intersection(left, right)
    assert len(inter) == 1
    assert in_span(inter, vec([1, 1]))
    disjoint = span_intersection([vec([1, 0])], [vec([0, 1])])
    assert disjoint == []


def test_row_space_basis_echelonized():
    rows = [vec([2, 4]), vec([1, 2]), vec([0, 0])]
    assert row_space_basis(rows) == [vec([1, 2])]


def test_from_columns():
    cols = [vec([1, 2]), vec([3, 4])]
    assert from_columns(cols) == mat([[1, 3], [2, 4]])


@given(matrices(3, 3))
@settings(max_examples=50)
def test_inverse_property(a):
    if is_invertible(a):
        assert mat_mul(a, inverse(a)) == identity(3)
    else:
        assert rank(a) < 3


@given(matrices(3, 4))
@settings(max_examples=50)
def test_rank_nullity(a):
    assert rank(a) + len(nullspace(a)) == 4


@given(matrices(2, 3), st.lists(entries, min_size=3, max_size=3))
@settings(max_examples=50)
def test_solve_round_trip(a, xs):
    x = vec(xs)
    b = mat_vec(a, x)
    y = solve(a, b)
    assert y is not None
    assert mat_vec(a, y) == b
