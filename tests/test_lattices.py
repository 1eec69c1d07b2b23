"""Discrete central subgroups: reduction, relatedness, quotient reps."""

import random
from fractions import Fraction

import pytest

from almostabelian.autos import InnerAut, apply_aut, validate_aut
from almostabelian.jordan import group_element
from almostabelian.lattices import (
    has_faithful_quotient_rep,
    is_economic,
    lattice_equal,
    normalize_subgroup,
    quotient_iso_certificate,
    reduce_generators,
    related_by_aut_check,
    related_by_aut_search,
    subgroup_from_data,
    validate_subgroup,
)
from almostabelian.scalars import TAU, TauScalar

SEED = 0x5EED


def sub(aleph, *gens):
    return subgroup_from_data(aleph, gens)


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
