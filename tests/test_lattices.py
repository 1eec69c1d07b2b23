"""Discrete central subgroups: reduction, relatedness, quotient reps."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from almostabelian import lattices
from almostabelian.autos import InnerAut, apply_aut, identity_aut, validate_aut
from almostabelian.errors import NotCentral
from almostabelian.expmap import torsion
from almostabelian.integers import det_int
from almostabelian.jordan import group_element, multiplicity_function
from almostabelian.lattices import (
    _block_boundaries,
    _significant,
    aut_image,
    has_faithful_quotient_rep,
    is_economic,
    lattice_equal,
    normalize_subgroup,
    preserves_lattice,
    quotient_iso_certificate,
    reduce_generators,
    related_by_aut_check,
    related_by_aut_search,
    subgroup_from_data,
    validate_subgroup,
)
from almostabelian.linalg import (
    from_columns,
    identity,
    is_invertible,
    nullspace,
    pivot_columns,
    solve_columns,
    vec_add,
)
from almostabelian.scalars import TAU, GaussRational, TauScalar

SEED = 0x5EED
ZERO = TauScalar(0)


def sub(aleph, *gens):
    return subgroup_from_data(aleph, gens)


@pytest.fixture
def no_candidates(monkeypatch):
    """Fail the test if the relatedness search tries a candidate A."""

    def refuse(a):
        raise AssertionError("the search tried a candidate")

    monkeypatch.setattr(lattices, "det_int", refuse)


def rand_fraction(rng, span=4, den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


class TestValidate:
    def test_torsion_generator_ok(self, e2):
        assert validate_subgroup(e2, sub(e2, ((0, 0), TAU))) == ()

    def test_noncentral_vector(self, heis):
        violations = validate_subgroup(heis, sub(heis, ((0, 1), 0)))
        assert len(violations) == 1
        assert "ker J" in violations[0]

    def test_empty_ok(self, e2):
        assert validate_subgroup(e2, sub(e2)) == ()

    def test_time_outside_torsion(self, heis):
        # nilpotent data have trivial torsion, so any nonzero time fails
        violations = validate_subgroup(heis, sub(heis, ((1, 0), 1)))
        assert any("torsion" in v for v in violations)

    def test_dependent_generators(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, 0), 0), ((0, 0, 2, 0), 0))
        assert any("dependent" in v for v in validate_subgroup(e2_r2, n))

    def test_rank_bound(self, e2_r2):
        n = sub(
            e2_r2,
            ((0, 0, 1, 0), 0),
            ((0, 0, 0, 1), 0),
            ((0, 0, 0, 0), TAU),
            ((0, 0, 1, 0), TAU),
        )
        assert any("exceeds" in v for v in validate_subgroup(e2_r2, n))


class TestReduce:
    def test_euclid_pair(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, 0), 2 * TAU), ((0, 0, 0, 1), 3 * TAU))
        reduced, a = reduce_generators(n)
        assert is_economic(reduced)
        assert reduced.generators[0].t == TAU
        assert lattice_equal(n, reduced)
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        assert det in (1, -1)

    def test_gcd_of_multiples_survives(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, 0), 4 * TAU), ((0, 0, 0, 1), 6 * TAU))
        reduced, _ = reduce_generators(n)
        assert reduced.generators[0].t == 2 * TAU
        assert lattice_equal(n, reduced)

    def test_already_economic(self, e2):
        n = sub(e2, ((0, 0), TAU))
        reduced, a = reduce_generators(n)
        assert is_economic(reduced)
        assert lattice_equal(n, reduced)
        assert a == ((1,),)

    def test_zero_times(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0))
        reduced, a = reduce_generators(n)
        assert a == ((1, 0), (0, 1))
        assert reduced.generators == n.generators

    def test_empty(self, e2):
        reduced, a = reduce_generators(sub(e2))
        assert reduced.rank == 0
        assert a == ()

    @pytest.mark.parametrize("group", ["e2_r2", "heis_r"])
    def test_time_outside_torsion_is_not_central(self, group, request):
        # on E(2) x R^2 the time 1 is not a multiple of tau; on heis x R,
        # nilpotent, the torsion is trivial and only time 0 is central
        aleph = request.getfixturevalue(group)
        n = sub(aleph, ((0,) * (aleph.dim - 1) + (1,), 1))
        message = f"generator {n.generators[0]} has time outside the torsion subgroup"
        assert message in validate_subgroup(aleph, n)
        for decide in (reduce_generators, lambda n: has_faithful_quotient_rep(aleph, n)):
            with pytest.raises(NotCentral) as raised:
                decide(n)
            assert str(raised.value) == message


    @pytest.mark.parametrize("group, v", [("e2_r2", (1, 0, 0, 0)), ("heis_r", (0, 1, 0))])
    def test_vector_outside_kernel_is_not_central(self, group, v, request):
        # the rotation plane of E(2) x R^2 and y of heis x R lie outside
        # ker J, where the central action matrix is not the action
        aleph = request.getfixturevalue(group)
        n = sub(aleph, (v, 0))
        message = f"generator {n.generators[0]} has vector part outside ker J"
        assert message in validate_subgroup(aleph, n)
        for decide in (
            lambda n: aut_image(aleph, identity_aut(aleph), n),
            lambda n: preserves_lattice(aleph, identity_aut(aleph), n),
            lambda n: quotient_iso_certificate(n, n, identity_aut(aleph)),
        ):
            with pytest.raises(NotCentral) as raised:
                decide(n)
            assert str(raised.value) == message


class TestEqual:
    def test_index_two_sublattice(self, e2_r2):
        p1 = sub(e2_r2, ((0, 0, 1, 0), 0))
        p2 = sub(e2_r2, ((0, 0, 2, 0), 0))
        assert not lattice_equal(p1, p2)
        assert not lattice_equal(p2, p1)

    def test_unimodular_change(self, e2_r2):
        q1 = sub(e2_r2, ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0))
        q2 = sub(e2_r2, ((0, 0, 1, 1), 0), ((0, 0, 0, 1), 0))
        assert lattice_equal(q1, q2)

    def test_ambient_mismatch(self, e2, heis):
        with pytest.raises(ValueError):
            lattice_equal(sub(e2), sub(heis))

    def test_empty_cases(self, e2):
        assert lattice_equal(sub(e2), sub(e2))
        assert not lattice_equal(sub(e2, ((0, 0), TAU)), sub(e2))


class TestNormalize:
    def test_splits_torsion_generator(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, 0), TAU))
        phi, m = normalize_subgroup(n)
        assert phi.alpha == 1
        assert phi.gamma[2] == -1 / TAU
        assert all(phi.gamma[i].is_zero for i in (0, 1, 3))
        assert lattice_equal(m, sub(e2_r2, ((0, 0, 0, 0), TAU)))
        assert validate_aut(e2_r2, phi) == ()

    def test_fixes_time_zero(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, 0), 0))
        phi, m = normalize_subgroup(n)
        assert phi.gamma == (TauScalar(0),) * 4
        assert lattice_equal(m, n)

    def test_empty(self, e2):
        phi, m = normalize_subgroup(sub(e2))
        assert m.rank == 0
        assert phi.alpha == 1

    def test_split_property(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, 0), 2 * TAU), ((0, 0, 0, 1), 3 * TAU))
        _, m = normalize_subgroup(n)
        for g in m.generators:
            assert g.t.is_zero or all(x.is_zero for x in g.v)

    def test_certificate_always_passes(self, e2_r2, e2, heis_r):
        cases = [
            sub(e2_r2, ((0, 0, 1, 0), TAU)),
            sub(e2_r2, ((0, 0, 1, 0), 2 * TAU), ((0, 0, 0, 1), 3 * TAU)),
            sub(e2_r2, ((0, 0, Fraction(1, 2), 0), 0)),
            sub(e2, ((0, 0), 3 * TAU)),
            sub(heis_r, ((0, 0, 1), 0)),
            sub(heis_r, ((1, 0, 1), 0)),
        ]
        for n in cases:
            phi, m = normalize_subgroup(n)
            assert quotient_iso_certificate(n, m, phi)


class TestRelated:
    def test_identity_certificate(self, e2_r2):
        n, _ = reduce_generators(sub(e2_r2, ((0, 0, 1, 0), TAU)))
        assert related_by_aut_check(n, n, ((1, 0), (0, 1)), ((1,),))
        # with one generator at a nonzero time no column is constrained
        assert related_by_aut_search(n, n) is not None

    def test_different_times_definitive(self, e2):
        a1 = sub(e2, ((0, 0), TAU))
        a2 = sub(e2, ((0, 0), 2 * TAU))
        assert not related_by_aut_check(a1, a2, (), ((1,),))
        assert related_by_aut_search(a1, a2, bound=3) is None

    def test_shear_certificate(self, e2_r2):
        b1 = sub(e2_r2, ((0, 0, 1, 0), 0))
        b2 = sub(e2_r2, ((0, 0, 2, 1), 0))
        # columns of the restricted operator: e3 -> 2e3+e4, e4 -> e4
        assert related_by_aut_check(b1, b2, ((2, 0), (1, 1)), ((1,),))

    def test_search_finds_shear(self, e2_r2):
        b1 = sub(e2_r2, ((0, 0, 1, 0), 0))
        b2 = sub(e2_r2, ((0, 0, 2, 1), 0))
        found = related_by_aut_search(b1, b2, bound=1)
        assert found is not None
        assert related_by_aut_check(b1, b2, *found)

    def test_first_row_forced(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 0, 0), TAU), ((0, 0, 1, 0), 0))
        a = ((1, 1), (0, 1))
        assert not related_by_aut_check(n, n, ((1, 0), (0, 1)), a)

    def test_rank_two_search(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 0, 0), TAU), ((0, 0, 1, 0), 0))
        m = sub(e2_r2, ((0, 0, 0, 0), TAU), ((0, 0, 2, 1), 0))
        found = related_by_aut_search(n, m, bound=1)
        assert found is not None
        assert related_by_aut_check(n, m, *found)

    def test_non_economic_rejected(self, e2_r2):
        bad = sub(e2_r2, ((0, 0, 1, 0), TAU), ((0, 0, 0, 1), TAU))
        with pytest.raises(ValueError):
            related_by_aut_check(bad, bad, ((1, 0), (0, 1)), ((1, 0), (0, 1)))
        with pytest.raises(ValueError):
            related_by_aut_search(bad, bad)

    def test_shape_error(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, 0), 0))
        wrong = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(ValueError):
            related_by_aut_check(n, n, wrong, ((1,),))

    def test_unimodular_required(self, e2_r2):
        n = sub(e2_r2, ((0, 0, 1, 0), 0))
        assert not related_by_aut_check(n, n, ((1, 0), (0, 1)), ((2,),))

    def test_triangular_pattern(self, heis_r):
        # kernel grading (size 2 block first, size 1 after): entries below
        # the diagonal blocks are forbidden, upper entries are allowed
        n = sub(heis_r, ((0, 0, 1), 0))
        assert related_by_aut_check(n, n, ((1, 0), (0, 1)), ((1,),))
        assert not related_by_aut_check(n, n, ((1, 0), (1, 1)), ((1,),))
        deep = sub(heis_r, ((1, 0, 0), 0))
        assert related_by_aut_check(deep, deep, ((1, 5), (0, 1)), ((1,),))

    def test_search_uses_entry_above_blocks(self, heis_r):
        # the abelian generator must gain a deep (size 2 block) component,
        # which only the entry above the diagonal blocks can supply
        n = sub(heis_r, ((0, 0, 1), 0))
        m = sub(heis_r, ((1, 0, 1), 0))
        found = related_by_aut_search(n, m, bound=1)
        assert found is not None
        delta, a = found
        assert not delta[0][1].is_zero
        assert related_by_aut_check(n, m, delta, a)

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_search_completes_a_singular_delta(self, e2_r2, bound):
        # the coordinate swap relates the pair, but the zero-filled solution
        # Delta = [[0, 0], [1, 1]] is singular; a null direction of the
        # system completes it
        n = sub(e2_r2, ((0, 0, 1, 0), 0))
        m = sub(e2_r2, ((0, 0, 0, 1), 0))
        assert related_by_aut_check(n, m, ((0, 1), (1, 0)), ((1,),))
        found = related_by_aut_search(n, m, bound=bound)
        assert found is not None
        assert related_by_aut_check(n, m, *found)

    def test_different_groups_rejected(self, heis_r, heis, e2):
        n = sub(heis_r, ((0, 0, 1), 0))
        for m in (sub(heis, ((1, 0), 0)), sub(e2, ((0, 0), TAU))):
            with pytest.raises(ValueError, match="different groups"):
                related_by_aut_search(n, m)
            with pytest.raises(ValueError, match="different groups"):
                related_by_aut_check(n, m, ((1, 0), (0, 1)), ((1,),))

    def test_zero_rank(self, e2):
        found = related_by_aut_search(sub(e2), sub(e2))
        assert found is not None
        assert related_by_aut_check(sub(e2), sub(e2), *found)

    def test_reference_pair_is_a_proof(self, no_candidates):
        # M's abelian projections carry the irrational relation (-1, -tau, 1),
        # so the lattice of admissible A forces A's last column to zero and
        # the search ends before it tries a single candidate
        n = sub(HEIS_R2, ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0), ((1, 0, 0, 0), 0))
        m = sub(HEIS_R2, ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0), ((1, 0, 1, TAU), 0))
        for bound in range(1, 6):
            assert related_by_aut_search(n, m, bound=bound) is None

    def test_unequal_tail_kernels_unrelated(self, heis_r, no_candidates):
        # on the tail of the size-1 block, N's generator vanishes and M's
        # does not: no block upper triangular Delta gives it that component
        n = sub(heis_r, ((1, 0, 0), 0))
        m = sub(heis_r, ((1, 0, 1), 0))
        assert related_by_aut_search(n, m, bound=2) is None

    def test_rank_three_first_row_is_fixed(self, e2_r2):
        # with a nonzero surviving time, A's first row is (+-1, 0, 0); the
        # box would reach first rows with other nonzero entries sooner
        n = sub(e2_r2, ((0, 0, 0, 0), TAU), ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0))
        m = sub(e2_r2, ((0, 0, 1, 1), TAU), ((0, 0, 1, 0), 0), ((0, 0, 1, 1), 0))
        found = related_by_aut_search(n, m, bound=1)
        assert found[1][0] == (1, 0, 0)
        assert found == _box_search(n, m, 1)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_search_agrees_with_the_box(self, data):
        n, m, image = data.draw(lattice_pairs())
        bound = data.draw(st.integers(min_value=0, max_value=2))
        found = related_by_aut_search(n, m, bound=bound)
        assert found == _box_search(n, m, bound)
        if found is not None:
            assert related_by_aut_check(n, m, *found)
        if image and bound == 2:
            assert found is not None


# ---------------------------------------------------------------------------
# the relatedness search as a test oracle: the whole box, one Q(tau) solve
# per unimodular candidate


def _box_search(n, m, bound):
    """The first unimodular A in the box, rows 1..k-1 outer and row 0
    inner, whose solved Delta passes related_by_aut_check (equal ranks at
    least one and surviving times equal up to sign assumed)."""
    aleph = n.aleph
    q, k = len(aleph.kernel_coordinates), n.rank
    fixed = not n.generators[0].t.is_zero
    constrained = list(range(1, k)) if fixed else list(range(k))
    boundaries, v_cols, u_cols = _block_boundaries(aleph), _significant(n), _significant(m)
    values = range(-bound, bound + 1)
    if fixed:
        first_rows = [(sign,) + (0,) * (k - 1) for sign in (1, -1)]
    else:
        first_rows = list(itertools.product(values, repeat=k))
    for tail in itertools.product(values, repeat=k * (k - 1)):
        for first in first_rows:
            a = (first,) + tuple(tail[i * k : (i + 1) * k] for i in range(k - 1))
            if abs(det_int(a)) != 1:
                continue
            delta = _box_delta(q, boundaries, v_cols, u_cols, a, constrained)
            if delta is not None and related_by_aut_check(n, m, delta, a):
                return delta, a
    return None


def _box_delta(q, boundaries, v_cols, u_cols, a, constrained):
    """(id + X) V = U A on the constrained columns, X block upper triangular
    with free entries at zero, a singular diagonal block completed along
    null directions of its system; None when no such Delta exists."""
    k = len(a)
    targets = [
        [
            sum((u_cols[i][r] * a[i][j] for i in range(k)), ZERO) - v_cols[j][r]
            for r in range(q)
        ]
        for j in constrained
    ]
    delta = [list(row) for row in identity(q)]
    for r0, r1 in boundaries:
        system = tuple(v_cols[j][r0:] for j in constrained)
        cols = [[row[c] for row in system] for c in range(q - r0)]
        xs = solve_columns(cols, [[t[r] for t in targets] for r in range(r0, r1)])
        if xs is None:
            return None
        for r, x in zip(range(r0, r1), xs):
            for c, value in enumerate(x, r0):
                delta[r][c] = delta[r][c] + value
        diag = [tuple(row[r0:r1]) for row in delta[r0:r1]]
        if not is_invertible(tuple(diag)):
            size, null = r1 - r0, nullspace(system)
            pivots = pivot_columns(from_columns(diag + [z[:size] for z in null]))
            spare = [null[p - size] for p in pivots if p >= size]
            dependent = [i for i in range(size) if i not in pivots]
            if len(spare) < len(dependent):
                return None
            for i, z in zip(dependent, spare):
                delta[r0 + i][r0:] = vec_add(delta[r0 + i][r0:], z)
    return tuple(tuple(row) for row in delta)


HEIS_R2 = multiplicity_function({(GaussRational(0), 2): 1, (GaussRational(0), 1): 2})
SEARCH_GROUPS = (
    multiplicity_function({(GaussRational(0), 2): 1, (GaussRational(0), 1): 1}),
    HEIS_R2,
    multiplicity_function({(GaussRational(0, 1), 1): 1, (GaussRational(0), 1): 2}),
    multiplicity_function(
        {(GaussRational(0, 1), 1): 1, (GaussRational(0), 2): 1, (GaussRational(0), 1): 1}
    ),
)
KERNEL_ENTRIES = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), TAU, -TAU / 2])
UNIMODULAR_2 = [
    c for c in itertools.product(itertools.product(range(-1, 3), repeat=2), repeat=2)
    if abs(det_int(c)) == 1
]


@st.composite
def lattice_pairs(draw):
    """Economic lattices N, M of equal rank k <= 2 and surviving times equal
    up to sign, M half the time the image of N under a block upper
    triangular Delta on ker J and an integer A with entries in [-2, 2];
    returns (N, M, whether M is such an image)."""
    aleph = draw(st.sampled_from(SEARCH_GROUPS))
    coords = aleph.kernel_coordinates
    q = len(coords)
    tor = torsion(aleph)
    t1 = ZERO if tor.is_trivial or draw(st.booleans()) else tor.t0
    k = draw(st.integers(min_value=1, max_value=2))
    cols = [[draw(KERNEL_ENTRIES) for _ in range(q)] for _ in range(k)]
    other = [[draw(KERNEL_ENTRIES) for _ in range(q)] for _ in range(k)]
    image = draw(st.booleans())
    if image:
        delta = [[0] * q for _ in range(q)]
        for r0, r1 in _block_boundaries(aleph):
            for r in range(r0, r1):
                for c in range(r0, q):
                    delta[r][c] = draw(st.integers(min_value=-1, max_value=2))
            assume(det_int([row[r0:r1] for row in delta[r0:r1]]) != 0)
        # U = Delta V A^-1 on the constrained columns
        constrained = list(range(1, k)) if t1 else list(range(k))
        if len(constrained) == 2:
            a_inverse = draw(st.sampled_from(UNIMODULAR_2))
        else:
            a_inverse = ((draw(st.sampled_from([1, -1])),),)
        moved = [[sum(delta[r][c] * cols[j][c] for c in range(q)) for r in range(q)]
                 for j in constrained]
        for jj, j in enumerate(constrained):
            other[j] = [sum(moved[ii][r] * a_inverse[ii][jj] for ii in range(len(constrained)))
                        for r in range(q)]
    s1 = t1 if draw(st.booleans()) else -t1

    def lattice(vectors, first_time):
        gens = []
        for j, v in enumerate(vectors):
            full = [0] * aleph.dim
            for i, x in zip(coords, v):
                full[i] = x
            gens.append((tuple(full), first_time if j == 0 else 0))
        out = subgroup_from_data(aleph, gens)
        assume(validate_subgroup(aleph, out) == ())
        return out

    return lattice(cols, t1), lattice(other, s1), image


class TestFaithfulQuotient:
    def test_heisenberg_obstruction(self, heis):
        decision = has_faithful_quotient_rep(heis, sub(heis, ((1, 0), 0)))
        assert not decision.representable
        assert decision.rep is None

    def test_abelian_direction(self, heis_r):
        decision = has_faithful_quotient_rep(heis_r, sub(heis_r, ((0, 0, 1), 0)))
        assert decision.representable
        assert decision.rep.dimension == 6
        assert lattice_equal(decision.image, sub(heis_r, ((0, 0, 1), 0)))

    def test_trivial_lattice(self, e2):
        decision = has_faithful_quotient_rep(e2, sub(e2))
        assert decision.representable
        assert decision.rep.dimension == 4

    def test_torsion_lattice(self, e2):
        n = sub(e2, ((0, 0), TAU))
        decision = has_faithful_quotient_rep(e2, n)
        assert decision.representable
        assert decision.rep.dimension == 5
        assert lattice_equal(decision.image, n)

    def test_mixed_generator_needs_shear(self, heis_r):
        n = sub(heis_r, ((1, 0, 1), 0))
        decision = has_faithful_quotient_rep(heis_r, n)
        assert decision.representable
        assert validate_aut(heis_r, decision.phi) == ()
        assert quotient_iso_certificate(n, decision.image, decision.phi)
        assert lattice_equal(decision.image, sub(heis_r, ((0, 0, 1), 0)))

    def test_rep_kernel_matches_lattice(self, heis_r):
        n = sub(heis_r, ((1, 0, 1), 0))
        decision = has_faithful_quotient_rep(heis_r, n)
        rep = decision.rep
        for g in decision.image.generators:
            assert rep.matrix(g).is_identity
        rng = random.Random(SEED)
        checked = 0
        while checked < 1000:
            a = rand_fraction(rng)
            b = rand_fraction(rng)
            member = a == 0 and b.denominator == 1
            g = group_element(heis_r, (a, 0, b), 0)
            if g.is_identity:
                continue
            assert rep.matrix(g).is_identity == member
            checked += 1

    def test_torsion_data_always_representable(self, e2_r2):
        cases = [
            sub(e2_r2, ((0, 0, 1, 0), TAU)),
            sub(e2_r2, ((0, 0, 1, 0), 2 * TAU), ((0, 0, 0, 1), 3 * TAU)),
            sub(e2_r2, ((0, 0, Fraction(1, 2), 0), 0), ((0, 0, 0, 1), TAU)),
        ]
        for n in cases:
            decision = has_faithful_quotient_rep(e2_r2, n)
            assert decision.representable
            assert quotient_iso_certificate(n, decision.image, decision.phi)

    def test_inner_fixes_generators(self, heis_r, e2_r2):
        rng = random.Random(SEED)
        cases = [
            (heis_r, sub(heis_r, ((1, 0, 1), 0))),
            (e2_r2, sub(e2_r2, ((0, 0, 1, 0), TAU), ((0, 0, 0, 1), 0))),
        ]
        for aleph, n in cases:
            assert validate_subgroup(aleph, n) == ()
            for _ in range(20):
                u = tuple(rand_fraction(rng) for _ in range(aleph.dim))
                inner = InnerAut(aleph, u, rand_fraction(rng))
                for g in n.generators:
                    assert apply_aut(aleph, inner, g) == g
