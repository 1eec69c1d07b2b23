"""Exact dense linear algebra over the tau field."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostabelian import linalg
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
from almostabelian.scalars import TAU, TauScalar

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


# ---------------------------------------------------------------------------
# the fraction-free kernel against field elimination


def _field_rref(rows):
    """Reference: Gauss-Jordan elimination over the field Q(tau), one
    TauScalar operation per cell update."""
    one = TauScalar(1)
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not work[i][c].is_zero), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = one / work[r][c]
        work[r] = [inv * x for x in work[r]]
        for i in range(nrows):
            if i != r and not work[i][c].is_zero:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in work], pivots


def _outcome(fn, *args):
    """fn's value, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


def _results(a, b):
    return (
        linalg._rref(a),
        _outcome(inverse, a),
        solve(a, b),
        nullspace(a),
    )


small_int = st.integers(-3, 3)
nonzero_int = small_int.filter(bool)
tau_entries = st.one_of(
    st.just(TauScalar(0)),
    entries.map(TauScalar),
    st.builds(lambda a, b: a + b * TAU, small_int, nonzero_int),
    st.builds(
        lambda a, b, c, d: (a + b * TAU) / (c + d * TAU),
        small_int, small_int, small_int, nonzero_int,
    ),
    small_int.map(lambda k: 1 / (TAU - k)),
)


@st.composite
def deficient_tau_systems(draw):
    """An n x m matrix over Q(tau), 0 <= n <= 5, 1 <= m <= 6, whose last
    rows are combinations of its first, and a right-hand side that is
    consistent or drawn at random."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    free = draw(st.integers(min(n, 1), n))
    rows = [draw(st.lists(tau_entries, min_size=m, max_size=m)) for _ in range(free)]
    for _ in range(n - free):
        coefs = draw(st.lists(tau_entries, min_size=free, max_size=free))
        combo = [sum((c * row[j] for c, row in zip(coefs, rows)), TauScalar(0)) for j in range(m)]
        rows.append(combo)
    order = draw(st.permutations(range(n)))
    a = tuple(tuple(rows[i]) for i in order)
    if draw(st.booleans()):
        b = mat_vec(a, vec(draw(st.lists(tau_entries, min_size=m, max_size=m)))) if a else ()
    else:
        b = vec(draw(st.lists(tau_entries, min_size=n, max_size=n)))
    return a, b


@given(deficient_tau_systems())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_field_elimination(system):
    a, b = system
    with mock.patch.object(linalg, "_rref", _field_rref):
        expected = _results(a, b)
    assert _results(a, b) == expected


def test_kernel_does_no_tau_arithmetic(monkeypatch):
    a = mat([[TAU, 1, 2 - TAU], [1 / (TAU + 1), TAU / 3, 0], [TAU, 1, 2 - TAU]])
    square = mat([[TAU, 1, 0], [1 / (TAU + 1), TAU / 3, 2], [0, 1, 2 - TAU]])
    b = vec([1, TAU, 1])

    def forbidden(*args):
        raise AssertionError("TauScalar arithmetic inside elimination")

    for name in (
        "__add__", "__radd__", "__sub__", "__rsub__",
        "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    ):
        monkeypatch.setattr(TauScalar, name, forbidden)
    assert rank(a) == 2
    assert pivot_columns(a) == [0, 1]
    assert solve(a, b) is not None
    assert len(inverse(square)) == 3
    assert len(nullspace(a)) == 1


def _tau_linear(n, seed):
    """A seeded n x n matrix with entries a + b*tau, a and b nonzero."""
    rng = random.Random(seed)
    pick = lambda: rng.choice((-1, 1)) * rng.randint(1, 5)  # noqa: E731
    return tuple(tuple(pick() + pick() * TAU for _ in range(n)) for _ in range(n))


def test_tau_linear_inverse_round_trip():
    a = _tau_linear(10, seed=1)
    assert inverse(inverse(a)) == a
    b = _tau_linear(6, seed=2)
    assert mat_mul(b, inverse(b)) == identity(6)
