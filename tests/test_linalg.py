"""Exact dense linear algebra over the tau field."""

import ast
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostabelian import linalg, scalars
from almostabelian.jordan import group_element, multiplicity_function
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
    solve_columns,
    span_intersection,
    vec,
    vec_is_zero,
    zero_vec,
)
from almostabelian.numeric import membership_numeric
from almostabelian.scalars import TAU, GaussRational, TauScalar
from almostabelian.subgroups import ConnectedSubgroupSpec, membership

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


def test_solve_columns_without_columns():
    # no unknowns: the targets' entries are still equations
    assert solve_columns([], []) == []
    assert solve_columns([], [vec([0, 0]), vec([0, 0])]) == [(), ()]
    assert solve_columns([], [vec([0, 0]), vec([0, TAU])]) is None


def test_solve_columns_of_height_zero():
    # no equations: every unknown is free, and set to zero
    assert solve_columns([(), (), ()], [(), ()]) == [zero_vec(3), zero_vec(3)]


def test_solve_columns_one_inconsistent_target():
    cols = [vec([1, 0, 1]), vec([0, TAU, 0])]
    both = [vec([2, TAU, 2]), vec([1, 1, 1])]
    assert solve_columns(cols, both) == [vec([2, 1]), vec([1, 1 / TAU])]
    assert solve_columns(cols, [vec([2, TAU, 2]), vec([0, 1, 1])]) is None


def test_in_span_of_no_vectors():
    assert in_span([], vec([0, 0]))
    assert not in_span([], vec([0, TAU]))


def test_span_intersection_with_an_empty_side():
    line = [vec([1, TAU])]
    assert span_intersection([], line) == []
    assert span_intersection(line, []) == []
    assert span_intersection([], []) == []


def test_membership_numeric_without_basis():
    # W = 0: case 1 is the trivial subgroup, case 2 the one-parameter
    # subgroup through (v0, 1), here exp(v0, 1) = [(1/2, 1), 1] on heis
    heis = multiplicity_function({(GaussRational(0), 2): 1})
    trivial, line = ConnectedSubgroupSpec(heis, ()), ConnectedSubgroupSpec(heis, (), (0, 1))
    cases = [
        (trivial, (0, 0), 0, True),
        (trivial, (1, 0), 0, False),
        (trivial, (0, 0), 1, False),
        (line, (TauScalar(1) / 2, 1), 1, True),
        (line, (0, 1), 1, False),
        (line, (0, 0), 0, True),
    ]
    for spec, v, t, member in cases:
        g = group_element(heis, v, t)
        assert membership_numeric(heis, spec, g) is member
        assert membership(heis, spec, g) is member


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


def test_one_polynomial_arithmetic():
    # linalg eliminates with the Z[tau] arithmetic of scalars; no other
    # module defines a polynomial helper (named _p* or _z* in scalars), and
    # outside scalars only integers, over Z, divides with a remainder
    for name in ("_zmul", "_zsub", "_zdiv"):
        assert getattr(linalg, name) is getattr(scalars, name)
    helper = re.compile(r"^_[pz][a-z]+$")
    # TauScalar's methods and cleared_rows add, subtract and multiply their
    # Fraction coefficient tuples with the same ring helpers
    tree = ast.parse(Path(scalars.__file__).read_text())
    users = [
        node
        for node in tree.body
        if getattr(node, "name", None) in ("TauScalar", "cleared_rows")
    ]
    reached = {
        node.id
        for user in users
        for node in ast.walk(user)
        if isinstance(node, ast.Name) and helper.match(node.id)
    }
    assert {"_zadd", "_zmul"} <= reached <= {"_zadd", "_zsub", "_zmul"}
    helpers, dividers = {}, set()
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name == "scalars.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and helper.match(node.name):
                helpers.setdefault(path.stem, []).append(node.name)
            if (
                isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.FloorDiv)
            ) or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "divmod"):
                dividers.add(path.stem)
    assert helpers == {}
    assert dividers <= {"integers"}


def _eliminates(func) -> bool:
    """Whether the function updates an indexed entry by subtracting a
    product, x[i] = x[i] - c * y[i] or x[i] -= c * y[i]: one step of row
    elimination."""
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Subscript):
            value = node.value
            if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Sub):
                if isinstance(value.right, ast.BinOp) and isinstance(value.right.op, ast.Mult):
                    return True
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Subscript)
            and isinstance(node.op, ast.Sub)
            and isinstance(node.value, ast.BinOp)
            and isinstance(node.value.op, ast.Mult)
        ):
            return True
    return False


def test_linear_algebra_has_one_home():
    # outside linalg no module sums a generator of products from ZERO by
    # hand, no function is named after a residual, and only integers, over
    # Z, eliminates rows beside linalg's kernel (scalars' polynomial
    # division, in its _z* helpers, has the same shape on coefficients)
    polynomial = re.compile(r"^_[pz][a-z]+$")
    sums, residuals, eliminators = set(), set(), set()
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "sum"
                and len(node.args) == 2
                and isinstance(node.args[0], ast.GeneratorExp)
                and "ZERO" in getattr(node.args[1], "id", "")
                and path.stem != "linalg"
            ):
                sums.add(path.stem)
            if isinstance(node, ast.FunctionDef):
                if "residual" in node.name:
                    residuals.add((path.stem, node.name))
                if _eliminates(node) and path.stem not in ("linalg", "integers"):
                    if not (path.stem == "scalars" and polynomial.match(node.name)):
                        eliminators.add((path.stem, node.name))
    assert sums == set()
    assert residuals == set()
    assert eliminators == set()


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
