"""Connected subgroup membership, lattice splitting, quotient closedness."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_laws import central_lattices, tau_linear

from almostabelian.errors import ExactnessUnavailable, NotCentral
from almostabelian.expmap import central_log, group_inverse, group_mul, torsion
from almostabelian.integers import integer_kernel
from almostabelian.jordan import group_element, multiplicity_function
from almostabelian.lattices import (
    DiscreteCentralSubgroup,
    lattice_equal,
    subgroup_from_data,
    validate_subgroup,
)
from almostabelian.linalg import (
    from_columns,
    in_span,
    mat_vec,
    nullspace,
    row_space_basis,
    solve,
    vec,
    vec_is_zero,
    vec_scale,
)
from almostabelian.numeric import membership_numeric
from almostabelian.scalars import TAU, GaussRational, TauScalar, cleared_rows, integer_rows
from almostabelian.subgroups import (
    ConnectedSubgroupSpec,
    bbar,
    is_abelian_subalgebra,
    is_quotient_subgroup_closed,
    lift_subgroup,
    membership,
    split_lattice_through,
    validate_subspace,
)

SEED = 0x5EED


def sub(aleph, *gens):
    return subgroup_from_data(aleph, gens)


def columns(subgroup):
    """The (v; t) generator columns of the subgroup, as TauScalars."""
    return tuple((*g.v, g.t) for g in subgroup.generators)


def in_lattice(subgroup, g):
    cols = columns(subgroup)
    target = vec(tuple(g.v) + (g.t,))
    if not cols:
        return vec_is_zero(target)
    sol = solve(from_columns(cols), target)
    return sol is not None and all(c.is_integer for c in sol)


class TestValidate:
    def test_kernel_line_invariant(self, heis):
        assert validate_subspace(heis, [(1, 0)]) == ()

    def test_noninvariant_line_rejected(self, heis):
        violations = validate_subspace(heis, [(0, 1)])
        assert len(violations) == 1
        assert "outside" in violations[0]

    def test_wrong_length_reported(self, heis):
        violations = validate_subspace(heis, [(1, 0, 0)])
        assert "coordinates" in violations[0]

    def test_full_space_invariant(self, heis):
        assert validate_subspace(heis, [(1, 0), (0, 1)]) == ()

    def test_rotation_plane(self, e2_r2):
        assert validate_subspace(e2_r2, [(1, 0, 0, 0), (0, 1, 0, 0)]) == ()
        assert validate_subspace(e2_r2, [(1, 0, 0, 0)]) != ()


class TestAbelian:
    def test_case_one_always(self, heis):
        assert is_abelian_subalgebra(heis, ConnectedSubgroupSpec(heis, [(0, 1)]))

    def test_graph_over_kernel(self, heis):
        spec = ConnectedSubgroupSpec(heis, [(1, 0)], v0=(0, 1))
        assert is_abelian_subalgebra(heis, spec)

    def test_graph_off_kernel(self, heis):
        spec = ConnectedSubgroupSpec(heis, [(0, 1)], v0=(1, 0))
        assert not is_abelian_subalgebra(heis, spec)


class TestMembership:
    def test_case_one(self, heis):
        spec = ConnectedSubgroupSpec(heis, [(1, 0)])
        assert membership(heis, spec, group_element(heis, (Fraction(3, 2), 0), 0))
        assert not membership(heis, spec, group_element(heis, (Fraction(3, 2), 1), 0))

    def test_case_one_needs_zero_time(self, heis):
        spec = ConnectedSubgroupSpec(heis, [(1, 0)])
        assert not membership(heis, spec, group_element(heis, (1, 0), 1))

    def test_graph_displacement(self, heis):
        # displacement of slope e2 after time t is (t^2/2, t)
        spec = ConnectedSubgroupSpec(heis, [(1, 0)], v0=(0, 1))
        g = group_element(heis, (Fraction(13, 2), 3), 3)
        assert membership(heis, spec, g)
        assert not membership(heis, spec, group_element(heis, (Fraction(13, 2), 4), 3))

    def test_identity_everywhere(self, heis, e2_r2):
        specs = [
            ConnectedSubgroupSpec(heis, [(1, 0)]),
            ConnectedSubgroupSpec(heis, [(1, 0)], v0=(0, 1)),
            ConnectedSubgroupSpec(e2_r2, [], v0=(0, 0, 1, 0)),
        ]
        for spec in specs:
            aleph = spec.aleph
            ident = group_element(aleph, (0,) * aleph.dim, 0)
            assert membership(aleph, spec, ident)

    def test_numeric_agrees_on_exact_domain(self, heis):
        spec = ConnectedSubgroupSpec(heis, [(1, 0)], v0=(0, 1))
        inside = group_element(heis, (Fraction(13, 2), 3), 3)
        outside = group_element(heis, (Fraction(13, 2), 4), 3)
        assert membership_numeric(heis, spec, inside)
        assert not membership_numeric(heis, spec, outside)

    def test_numeric_quarter_turn(self, e2):
        # integral of the rotation flow from e1 over a quarter turn is (1, 1)
        spec = ConnectedSubgroupSpec(e2, [], v0=(1, 0))
        on_curve = group_element(e2, (1, 1), TAU / 4)
        off_curve = group_element(e2, (1, 2), TAU / 4)
        assert membership_numeric(e2, spec, on_curve)
        assert not membership_numeric(e2, spec, off_curve)

    def test_exact_quarter_turn(self, e2):
        spec = ConnectedSubgroupSpec(e2, [], v0=(1, 0))
        assert membership(e2, spec, group_element(e2, (1, 1), TAU / 4))
        assert not membership(e2, spec, group_element(e2, (1, 2), TAU / 4))

    def test_exact_mode_reports_unavailable(self, e2):
        # cos(tau/3) is rational, sin(tau/3) is not: no exact closed form
        spec = ConnectedSubgroupSpec(e2, [], v0=(1, 0))
        g = group_element(e2, (1, 1), TAU / 3)
        with pytest.raises(ExactnessUnavailable, match=r"block \(i, 1\)"):
            membership(e2, spec, g)

    def test_closed_under_group_law(self, heis, e2_r2):
        rng = random.Random(SEED)
        heis_spec = ConnectedSubgroupSpec(heis, [(1, 0)], v0=(0, 1))
        flat_spec = ConnectedSubgroupSpec(e2_r2, [(0, 0, 1, 0), (0, 0, 0, 1)])
        turn_spec = ConnectedSubgroupSpec(e2_r2, [], v0=(0, 0, 1, 0))
        for _ in range(25):
            pairs = []
            for _ in range(2):
                x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                t = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                pairs.append(group_element(heis, (x + t * t / 2, t), t))
            for _ in range(2):
                a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                pairs.append(group_element(e2_r2, (0, 0, a, b), 0))
            for _ in range(2):
                m = rng.randint(-3, 3)
                pairs.append(group_element(e2_r2, (0, 0, m * TAU, 0), m * TAU))
            h1, h2, f1, f2, r1, r2 = pairs
            assert membership(heis, heis_spec, group_mul(heis, h1, h2))
            assert membership(heis, heis_spec, group_inverse(heis, h1))
            assert membership(e2_r2, flat_spec, group_mul(e2_r2, f1, f2))
            assert membership(e2_r2, flat_spec, group_inverse(e2_r2, f2))
            assert membership(e2_r2, turn_spec, group_mul(e2_r2, r1, r2))
            assert membership(e2_r2, turn_spec, group_inverse(e2_r2, r1))


class TestLift:
    def test_idempotent(self, heis):
        spec = ConnectedSubgroupSpec(heis, [(1, 0)], v0=(0, 1))
        lifted = lift_subgroup(heis, spec)
        assert lifted == spec
        assert lift_subgroup(heis, lifted) == lifted

    def test_invalid_subspace_rejected(self, heis):
        with pytest.raises(ValueError):
            lift_subgroup(heis, ConnectedSubgroupSpec(heis, [(0, 1)]))


class TestLogs:
    def test_bbar_rejects_rotation_part(self, e2_r2):
        g = group_element(e2_r2, (1, 0, 0, 0), 0)
        with pytest.raises(NotCentral):
            bbar(e2_r2, [g])

    def test_bbar_empty(self, e2_r2):
        assert bbar(e2_r2, []) == ()

    def test_bbar_rank(self, e2_r2):
        gens = [
            group_element(e2_r2, (0, 0, 1, 0), 0),
            group_element(e2_r2, (0, 0, 0, 1), 0),
            group_element(e2_r2, (0, 0, 1, 1), 0),
        ]
        assert len(bbar(e2_r2, gens)) == 2

    def test_bbar_time_direction(self, e2):
        g = group_element(e2, (0, 0), TAU)
        assert bbar(e2, [g]) == (vec((0, 0, 1)),)


class TestSplit:
    def test_coordinate_split(self, e2_r2):
        n = sub(e2_r2, (((0, 0, 1, 0), 0)), ((0, 0, 0, 1), 0))
        spec = ConnectedSubgroupSpec(e2_r2, [(0, 0, 1, 0)])
        inside, comp = split_lattice_through(e2_r2, spec, n)
        assert columns(inside) == (vec((0, 0, 1, 0, 0)),)
        assert columns(comp) == (vec((0, 0, 0, 1, 0)),)

    def test_everything_inside(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0))
        spec = ConnectedSubgroupSpec(e2_r2, [(0, 0, 1, 0), (0, 0, 0, 1)])
        inside, comp = split_lattice_through(e2_r2, spec, n)
        assert lattice_equal(inside, n)
        assert comp.rank == 0

    def test_irrational_slope_misses_lattice(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0))
        spec = ConnectedSubgroupSpec(e2_r2, [(0, 0, 1, TAU)])
        inside, comp = split_lattice_through(e2_r2, spec, n)
        assert inside.rank == 0
        assert lattice_equal(comp, n)

    def test_time_condition(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, 0), TAU))
        spec = ConnectedSubgroupSpec(e2_r2, [(0, 0, 1, 0)])
        inside, comp = split_lattice_through(e2_r2, spec, n)
        assert inside.rank == 0
        assert lattice_equal(comp, n)

    def test_torsion_times_on_graph(self, e2_r2):
        spec = ConnectedSubgroupSpec(e2_r2, [], v0=(0, 0, 1, 0))
        on_graph = sub(e2_r2, ((0, 0, TAU, 0), TAU))
        inside, _ = split_lattice_through(e2_r2, spec, on_graph)
        assert lattice_equal(inside, on_graph)
        off_graph = sub(e2_r2, ((0, 0, 0, 1), TAU))
        inside, comp = split_lattice_through(e2_r2, spec, off_graph)
        assert inside.rank == 0
        assert lattice_equal(comp, off_graph)

    def test_mixed_coefficients(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, TAU), 0), ((0, 0, 0, 1), 0))
        spec = ConnectedSubgroupSpec(e2_r2, [(0, 0, 1, TAU)])
        inside, comp = split_lattice_through(e2_r2, spec, n)
        assert lattice_equal(inside, sub(e2_r2, ((0, 0, 1, TAU), 0)))
        assert lattice_equal(comp, sub(e2_r2, ((0, 0, 0, 1), 0)))

    def test_empty_lattice(self, e2_r2):
        spec = ConnectedSubgroupSpec(e2_r2, [(0, 0, 1, 0)])
        empty = DiscreteCentralSubgroup(e2_r2, ())
        inside, comp = split_lattice_through(e2_r2, spec, empty)
        assert inside.rank == 0 and comp.rank == 0

    def test_direct_sum_and_purity(self, e2_r2):
        rng = random.Random(SEED)
        n = sub(e2_r2, ((0, 0, 1, TAU), 0), ((0, 0, 0, 1), 0))
        spec = ConnectedSubgroupSpec(e2_r2, [(0, 0, 1, TAU)])
        inside, comp = split_lattice_through(e2_r2, spec, n)
        recombined = DiscreteCentralSubgroup(
            e2_r2, inside.generators + comp.generators
        )
        assert lattice_equal(recombined, n)
        gens = n.generators
        for _ in range(100):
            m = [rng.randint(-5, 5) for _ in gens]
            q = rng.randint(1, 6)
            v = [sum((c * g.v[i] for c, g in zip(m, gens)), TauScalar(0)) for i in range(4)]
            t = sum((c * g.t for c, g in zip(m, gens)), TauScalar(0))
            g_el = group_element(e2_r2, v, t)
            power = group_element(
                e2_r2, [q * x for x in v], q * t
            )
            if in_lattice(inside, power):
                assert in_lattice(inside, g_el)


class TestClosed:
    def test_rational_slope_closed(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0))
        spec = ConnectedSubgroupSpec(e2_r2, [(0, 0, 1, 1)])
        assert is_quotient_subgroup_closed(e2_r2, spec, n)

    def test_irrational_slope_dense(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0))
        spec = ConnectedSubgroupSpec(e2_r2, [(0, 0, 1, TAU)])
        assert not is_quotient_subgroup_closed(e2_r2, spec, n)

    def test_empty_lattice_closed(self, e2_r2):
        spec = ConnectedSubgroupSpec(e2_r2, [(0, 0, 1, TAU)])
        empty = DiscreteCentralSubgroup(e2_r2, ())
        assert is_quotient_subgroup_closed(e2_r2, spec, empty)

    def test_graph_along_kernel_closed(self, e2_r2):
        spec = ConnectedSubgroupSpec(e2_r2, [], v0=(0, 0, 1, 0))
        n = sub(e2_r2, ((0, 0, TAU, 0), TAU))
        assert is_quotient_subgroup_closed(e2_r2, spec, n)

    def test_skew_lattice_closed(self, e2_r2):
        spec = ConnectedSubgroupSpec(e2_r2, [(0, 0, 1, 0)])
        n = sub(e2_r2, ((0, 0, 1, 0), TAU))
        assert is_quotient_subgroup_closed(e2_r2, spec, n)

    def test_graph_slope_off_lattice_logs(self, e2):
        # lattice sits on the graph, but its log direction leaves the
        # parametrized slice when the slope has no kernel component
        spec = ConnectedSubgroupSpec(e2, [], v0=(1, 0))
        n = sub(e2, ((0, 0), TAU))
        assert not is_quotient_subgroup_closed(e2, spec, n)

    def test_equal_dimensions_different_spans(self):
        # on E(2) x R^3 both sides are lines: N cap H is <[tau e2, tau]>, so
        # the left is spanned by e2 + e_t, while H's directions meet the
        # span of N's logs in e3 + tau e4 only, since e0 is off it
        aleph = multiplicity_function({(GaussRational(0, 1), 1): 1, (GaussRational(0), 1): 3})
        n = sub(aleph, ((0, 0, TAU, 0, 0), TAU), ((0, 0, 0, 1, 0), 0), ((0, 0, 0, 0, 1), 0))
        spec = ConnectedSubgroupSpec(aleph, [(0, 0, 0, 1, TAU)], v0=(1, 0, 1, 0, 0))
        inside, _ = split_lattice_through(aleph, spec, n)
        assert columns(inside) == (vec((0, 0, TAU, 0, 0, TAU)),)
        assert not is_quotient_subgroup_closed(aleph, spec, n)
        assert not _oracle_closed(aleph, spec, n)

    def test_log_span_containment(self, e2_r2):
        fixtures = [
            (
                ConnectedSubgroupSpec(e2_r2, [(0, 0, 1, 1)]),
                sub(e2_r2, ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0)),
            ),
            (
                ConnectedSubgroupSpec(e2_r2, [], v0=(0, 0, 1, 0)),
                sub(e2_r2, ((0, 0, TAU, 0), TAU), ((0, 0, 0, 1), 0)),
            ),
        ]
        for spec, n in fixtures:
            inside, _ = split_lattice_through(e2_r2, spec, n)
            left = bbar(e2_r2, inside.generators)
            h_dirs = [vec(tuple(w) + (0,)) for w in spec.basis]
            if spec.case == 2:
                h_dirs.append(vec(tuple(spec.v0) + (1,)))
            logs = []
            for g in n.generators:
                x = central_log(e2_r2, g)
                logs.append(vec(tuple(x.v) + (x.t,)))
            for row in left:
                assert in_span(h_dirs, row)
                assert in_span(logs, row)


# The construction split_lattice_through used before it asked the normals
# of W: eliminate each target by an echelon basis of W and read one
# condition per coordinate of the residual.  Kept here as the oracle.


def _echelon_residual(echelon, target):
    out = list(target)
    for row in echelon:
        p = next(i for i, x in enumerate(row) if not x.is_zero)
        c = out[p]
        if not c.is_zero:
            for i in range(len(out)):
                out[i] = out[i] - c * row[i]
    return out


def _oracle_inside(aleph, spec, n):
    gens = n.generators
    tor = torsion(aleph)
    multiples = n.time_multiples
    if spec.case == 2 and not tor.is_trivial:
        kernel = set(aleph.kernel_coordinates)
        slope = [x if i in kernel else TauScalar(0) for i, x in enumerate(spec.v0)]
        targets = [
            [x - m * tor.t0 * y for x, y in zip(g.v, slope)] for g, m in zip(gens, multiples)
        ]
    else:
        targets = [list(g.v) for g in gens]
    echelon = row_space_basis(spec.basis)
    residuals = [_echelon_residual(echelon, z) for z in targets]
    conditions = [
        [r[coord] for r in residuals]
        for coord in range(aleph.dim)
        if not all(r[coord].is_zero for r in residuals)
    ]
    if spec.case == 1 and any(multiples):
        conditions.append([TauScalar(m) for m in multiples])
    kernel_cols = integer_kernel(integer_rows(cleared_rows(conditions)), len(gens))
    return subgroup_from_data(aleph, [_combination(aleph, gens, c) for c in kernel_cols])


def _combination(aleph, gens, coeffs):
    """(v, t) of sum_i c_i g_i, summed cell by cell (central generators
    commute), apart from the library's products."""
    point = [TauScalar(0)] * (aleph.dim + 1)
    for c, g in zip(coeffs, gens):
        point = [x + c * y for x, y in zip(point, (*g.v, g.t))]
    return point[:-1], point[-1]


# The closedness construction before it compared spans by rank: the RREF
# of the logs of N cap H (central_log is the identity on central points)
# against the RREF of the slice of H in the span of N's logs, read off the
# nullspace of [h | -n] and reduced again.  Kept here as the oracle.


def _oracle_closed(aleph, spec, n):
    left = row_space_basis([(*g.v, g.t) for g in _oracle_inside(aleph, spec, n).generators])
    h_dirs = [vec(tuple(w) + (0,)) for w in spec.basis]
    if spec.case == 2:
        h_dirs.append(vec(tuple(spec.v0) + (1,)))
    logs = [vec(tuple(g.v) + (g.t,)) for g in n.generators]
    stacked = from_columns(h_dirs + [vec_scale(-1, v) for v in logs])
    combos = [mat_vec(from_columns(h_dirs), rel[: len(h_dirs)]) for rel in nullspace(stacked)]
    right = row_space_basis([c for c in combos if not vec_is_zero(c)])
    return list(left) == list(right)


def _scalar(rng):
    """A small rational, half the time plus a rational multiple of tau."""
    x = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    if rng.random() < 0.5:
        return x + Fraction(rng.randint(-2, 2), rng.randint(1, 2)) * TAU
    return TauScalar(x)


def _kernel_vector(rng, aleph):
    v = [TauScalar(0)] * aleph.dim
    for i in aleph.kernel_coordinates:
        v[i] = _scalar(rng)
    return v


def _random_case(rng, aleph, partner):
    """A lattice on aleph and a J-invariant subspace, with a slope a third
    of the time.  Subspace vectors are often lattice vectors, and the slope
    often follows one generator, so that some lattice points lie in H.
    partner(rng) gives the non-kernel vectors the subspace may add."""
    tor = torsion(aleph)
    while True:
        gens = []
        for _ in range(rng.randint(0, 3)):
            t = 0 if tor.is_trivial else rng.randint(-2, 2) * tor.t0
            gens.append((_kernel_vector(rng, aleph), t))
        if validate_subgroup(aleph, gens) == ():
            n = subgroup_from_data(aleph, gens)
            break
    basis = []
    for _ in range(rng.randint(0, 2)):
        if gens and rng.random() < 0.6:
            m = [rng.randint(-2, 2) for _ in gens]
            basis.append(_combination(aleph, n.generators, m)[0])
        else:
            basis.append(_kernel_vector(rng, aleph))
    basis.extend(partner(rng))
    basis = [w for w in basis if not vec_is_zero(vec(w))]
    v0 = None
    if rng.random() < 1 / 3:
        if gens and not tor.is_trivial and rng.random() < 0.5:
            v, t = gens[0]
            v0 = [x / t for x in v] if t else _kernel_vector(rng, aleph)
        else:
            v0 = [_scalar(rng) for _ in range(aleph.dim)]
    spec = ConnectedSubgroupSpec(aleph, basis, v0)
    assert validate_subspace(aleph, spec.basis) == ()
    return spec, n


def _e2_r2_partner(rng):
    # the rotation plane, or nothing: W is invariant either way
    return [(1, 0, 0, 0), (0, 1, 0, 0)] if rng.random() < 0.3 else []


def _heis_r_partner(rng):
    # e0 = J e1 must come with any vector that has an e1 component
    if rng.random() < 0.3:
        return [(1, 0, 0), (_scalar(rng), 1, _scalar(rng))]
    return []


@pytest.mark.parametrize("name, partner", [("e2_r2", _e2_r2_partner), ("heis_r", _heis_r_partner)])
def test_split_agrees_with_residual_oracle(request, name, partner):
    aleph = request.getfixturevalue(name)
    rng = random.Random(SEED)
    hits = 0
    for _ in range(60):
        spec, n = _random_case(rng, aleph, partner)
        inside, comp = split_lattice_through(aleph, spec, n)
        assert lattice_equal(inside, _oracle_inside(aleph, spec, n))
        assert lattice_equal(
            DiscreteCentralSubgroup(aleph, inside.generators + comp.generators), n
        )
        assert is_quotient_subgroup_closed(aleph, spec, n) == _oracle_closed(aleph, spec, n)
        hits += 0 < inside.rank < n.rank
    # the draws reach proper, nontrivial splits, not only the extremes
    assert hits >= 5


def test_closedness_agrees_with_the_oracle_on_random_data():
    # W from kernel vectors, which J kills, so W is invariant; they are
    # often lattice vectors, and the slope often a generator over its
    # time, so that lattice points lie in H and both answers occur.
    # Kernel vectors and slopes may be tau-valued, and the split itself
    # is checked against the oracle's
    seen = set()

    @given(central_lattices(), st.data())
    @settings(max_examples=60)
    def check(n, data):
        aleph, kernel = n.aleph, n.aleph.kernel_coordinates
        gens = [g.v for g in n.generators]
        kernel_vectors = st.lists(tau_linear, min_size=len(kernel), max_size=len(kernel)).map(
            lambda xs: [dict(zip(kernel, xs)).get(i, 0) for i in range(aleph.dim)]
        )
        pick = st.sampled_from(gens) if gens else kernel_vectors
        basis = data.draw(st.lists(st.one_of(pick, kernel_vectors), max_size=2))
        basis = [w for w in basis if not vec_is_zero(vec(w))]
        slopes = [None, data.draw(st.lists(tau_linear, min_size=aleph.dim, max_size=aleph.dim))]
        slopes += [[x / g.t for x in g.v] for g in n.generators if not g.t.is_zero]
        spec = ConnectedSubgroupSpec(aleph, basis, data.draw(st.sampled_from(slopes)))
        inside, comp = split_lattice_through(aleph, spec, n)
        assert lattice_equal(inside, _oracle_inside(aleph, spec, n))
        assert lattice_equal(
            DiscreteCentralSubgroup(aleph, inside.generators + comp.generators), n
        )
        closed = is_quotient_subgroup_closed(aleph, spec, n)
        assert closed == _oracle_closed(aleph, spec, n)
        seen.add(closed)

    check()
    assert seen == {True, False}
