"""Exact dense linear algebra over the tau field."""

import ast
import random
import re
from fractions import Fraction
from pathlib import Path

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
    transpose,
    unit_vec,
    vec,
    vec_is_zero,
    vec_scale,
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


def _results(a, bs):
    return (
        row_space_basis(a),
        _outcome(inverse, a),
        solve(a, bs[0]),
        solve_columns(transpose(a), bs),
        nullspace(a),
        pivot_columns(a),
        rank(a),
        is_invertible(a),
    )


def _oracle_inverse(a):
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("inverse of a non-square matrix")
    rows, pivots = _field_rref([tuple(a[i]) + unit_vec(n, i) for i in range(n)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(r[n:] for r in rows)


def _oracle_solve_columns(cols, bs):
    n = len(cols)
    rows, pivots = _field_rref([vec(r) for r in zip(*cols, *bs)])
    if any(c >= n for c in pivots):
        return None
    out = []
    for k in range(len(bs)):
        x = [TauScalar(0)] * n
        for r, c in enumerate(pivots):
            x[c] = rows[r][n + k]
        out.append(tuple(x))
    return out


def _oracle_nullspace(a):
    ncols = len(a[0]) if a else 0
    rows, pivots = _field_rref(a)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [TauScalar(0)] * ncols
        x[f] = TauScalar(1)
        for r, c in enumerate(pivots):
            x[c] = -rows[r][f]
        basis.append(tuple(x))
    return basis


def _oracle_results(a, bs):
    """_results read off the field RREF with every entry built: the
    oracle for callers that build only the entries they read."""
    rows, pivots = _field_rref(a)
    first = _oracle_solve_columns(transpose(a), bs[:1])
    return (
        rows[: len(pivots)],
        _outcome(_oracle_inverse, a),
        None if first is None else first[0],
        _oracle_solve_columns(transpose(a), bs),
        _oracle_nullspace(a),
        pivots,
        len(pivots),
        len(pivots) == len(a) == (len(a[0]) if a else 0),
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
    rows are combinations of its first, and one to three right-hand sides,
    each consistent or drawn at random."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    free = draw(st.integers(min(n, 1), n))
    rows = [draw(st.lists(tau_entries, min_size=m, max_size=m)) for _ in range(free)]
    for _ in range(n - free):
        coefs = draw(st.lists(tau_entries, min_size=free, max_size=free))
        combo = [sum((c * row[j] for c, row in zip(coefs, rows)), TauScalar(0)) for j in range(m)]
        rows.append(combo)
    order = draw(st.permutations(range(n)))
    a = tuple(tuple(rows[i]) for i in order)
    bs = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            x = vec(draw(st.lists(tau_entries, min_size=m, max_size=m)))
            bs.append(mat_vec(a, x) if a else ())
        else:
            bs.append(vec(draw(st.lists(tau_entries, min_size=n, max_size=n))))
    return a, bs


@given(deficient_tau_systems())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_field_elimination(system):
    a, bs = system
    assert _results(a, bs) == _oracle_results(a, bs)


# ---------------------------------------------------------------------------
# the Z[tau] products against one TauScalar operation per cell


def _cellwise_dot(row, col):
    """Reference: a sum of products, one TauScalar operation per product
    and per partial sum."""
    total = TauScalar(0)
    for x, y in zip(row, col, strict=True):
        total = total + x * y
    return total


def _cellwise_mat_vec(a, u):
    return tuple(_cellwise_dot(row, u) for row in a)


def _cellwise_mat_mul(a, b):
    return tuple(tuple(_cellwise_dot(row, col) for col in zip(*b)) for row in a)


def _cellwise_vec_scale(c, u):
    return tuple(TauScalar(0) + c * x for x in u)


def _flat(value):
    if isinstance(value, tuple):
        for part in value:
            yield from _flat(part)
    else:
        yield value


# what the callers pass: TauScalars of every kind, and ints and Fractions
product_entries = st.one_of(tau_entries, small_int, entries)


@st.composite
def product_operands(draw):
    """a (n x k), b (k x m), u (length k) and a scalar c, with entries of
    every kind and some rows and columns of a and b zero."""

    def operand(rows, cols):
        cells = [draw(st.lists(product_entries, min_size=cols, max_size=cols)) for _ in range(rows)]
        zero_rows = draw(st.sets(st.integers(0, rows - 1))) if rows else set()
        zero_cols = draw(st.sets(st.integers(0, cols - 1))) if cols else set()
        return tuple(
            tuple(0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row))
            for i, row in enumerate(cells)
        )

    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    u = operand(1, k)[0] if k else ()
    return operand(n, k), operand(k, m), u, draw(product_entries)


@given(product_operands())
@settings(max_examples=80, deadline=None)
def test_products_match_cellwise_arithmetic(operands):
    a, b, u, c = operands
    for got, expected in (
        (mat_vec(a, u), _cellwise_mat_vec(a, u)),
        (mat_mul(a, b), _cellwise_mat_mul(a, b)),
        (vec_scale(c, u), _cellwise_vec_scale(c, u)),
    ):
        assert got == expected
        assert all(isinstance(x, TauScalar) for x in _flat(got))


@st.composite
def sparse_block_diagonals(draw):
    """A square matrix over Q(tau) with one to three diagonal blocks of
    size 1 to 3 and zeros elsewhere, rows and columns permuted, and a
    right-hand side: most rows miss most pivot columns."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(sizes)
    rows = [[TauScalar(0)] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            rows[i][start : start + size] = draw(
                st.lists(tau_entries, min_size=size, max_size=size)
            )
        start += size
    row_order, col_order = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    a = tuple(tuple(rows[i][j] for j in col_order) for i in row_order)
    return a, vec(draw(st.lists(tau_entries, min_size=n, max_size=n)))


@given(sparse_block_diagonals())
@settings(max_examples=40, deadline=None)
def test_sparse_block_diagonal_matches_field_elimination(system):
    a, b = system
    assert _results(a, [b]) == _oracle_results(a, [b])
    if is_invertible(a):
        assert _cellwise_mat_mul(a, inverse(a)) == identity(len(a))


def test_callers_build_only_what_they_read(monkeypatch):
    # rank, pivot_columns and is_invertible build no TauScalar, and the
    # others build at most the entries they return
    a = mat([[TAU, 1, 2 - TAU, 1], [1 / (TAU + 1), TAU / 3, 0, 2], [2 * TAU, 2, 4 - 2 * TAU, 2]])
    square = mat([[TAU, 1, 0], [1 / (TAU + 1), TAU / 3, 2], [0, 1, 2 - TAU]])
    b = mat_vec(a, vec([1, 0, TAU, 0]))
    built = []

    def spy(num, den):
        built.append((num, den))
        return scalars.zpoly_ratio(num, den)

    monkeypatch.setattr(linalg, "zpoly_ratio", spy)
    assert (rank(a), pivot_columns(a), is_invertible(square)) == (2, [0, 1], True)
    assert built == []
    # two pivots: one solution of two built entries, a 3 x 3 inverse, two
    # null vectors with their two pivot entries each
    for call, most in ((lambda: solve_columns(transpose(a), [b]), 2),
                       (lambda: inverse(square), 9), (lambda: nullspace(a), 4)):
        built.clear()
        assert call() and len(built) <= most


def _forbid_tau_arithmetic(monkeypatch):
    """Make every TauScalar sum, difference, product and quotient fail."""

    def forbidden(*args):
        raise AssertionError("TauScalar arithmetic inside linalg")

    for name in (
        "__add__", "__radd__", "__sub__", "__rsub__",
        "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    ):
        monkeypatch.setattr(TauScalar, name, forbidden)


def test_kernel_does_no_tau_arithmetic(monkeypatch):
    a = mat([[TAU, 1, 2 - TAU], [1 / (TAU + 1), TAU / 3, 0], [TAU, 1, 2 - TAU]])
    square = mat([[TAU, 1, 0], [1 / (TAU + 1), TAU / 3, 2], [0, 1, 2 - TAU]])
    b = vec([1, TAU, 1])
    _forbid_tau_arithmetic(monkeypatch)
    assert rank(a) == 2
    assert pivot_columns(a) == [0, 1]
    assert solve(a, b) is not None
    assert len(inverse(square)) == 3
    assert len(nullspace(a)) == 1


def test_products_do_no_tau_arithmetic(monkeypatch):
    # operands of every kind: TauScalars, ints and Fractions, a zero row
    a = (
        (TAU, 1, 2 - TAU),
        (1 / (TAU + 1), Fraction(1, 3), 0),
        (0, 0, 0),
    )
    b = ((1, TAU), (TAU / 2, 0), (Fraction(-1, 2), 1 / (TAU - 1)))
    u, c = (1, TAU / 3, Fraction(2, 3)), 1 / (TAU + 2)
    expected = (_cellwise_mat_vec(a, u), _cellwise_mat_mul(a, b), _cellwise_vec_scale(c, u))
    _forbid_tau_arithmetic(monkeypatch)
    assert (mat_vec(a, u), mat_mul(a, b), vec_scale(c, u)) == expected


def test_one_polynomial_arithmetic():
    # linalg eliminates with the Z[tau] arithmetic of scalars; no other
    # module defines a polynomial helper (named _p* or _z* in scalars), and
    # outside scalars only integers, over Z, divides with a remainder
    for name in ("_zmul", "_zsub", "_zdiv"):
        assert getattr(linalg, name) is getattr(scalars, name)
    helper = re.compile(r"^_[pz][a-z]+$")
    # TauScalar's methods and over_common_denominator add, subtract and
    # multiply their Fraction coefficient tuples with the same ring helpers
    tree = ast.parse(Path(scalars.__file__).read_text())
    users = [
        node
        for node in tree.body
        if getattr(node, "name", None) in ("TauScalar", "over_common_denominator")
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
