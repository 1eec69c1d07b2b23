"""Tests for the matrix representation builders."""

import math
from fractions import Fraction

import numpy as np
import pytest

from almostabelian.errors import ExactnessUnavailable, InvalidSubgroup, UnsupportedLattice
from almostabelian.expmap import exp_map, exp_rotation, group_mul
from almostabelian.jordan import (
    algebra_element,
    commutator,
    group_element,
    multiplicity_function,
)
from almostabelian.lattices import subgroup_from_data
from almostabelian.linalg import mat_mul, mat_vec, vec
from almostabelian.numeric import (
    block_exp_numeric,
    entry_numeric,
    group_rep_numeric,
    quotient_rep_numeric,
)
from almostabelian.reps import (
    ExpAtom,
    RepMatrix,
    algebra_rep,
    build_P,
    decompose,
    group_rep_G,
    group_rep_GI,
    group_rep_GII,
    is_simply_connected_G,
    make_entry,
    quotient_chart,
    quotient_faithful_rep,
)
from almostabelian.scalars import TAU, GaussRational, TauScalar

SEED = 0x5EED

ZERO = TauScalar(0)
ONE = TauScalar(1)


def subgroup(aleph, *gens):
    return subgroup_from_data(aleph, gens)


def numeric_mul(aleph, v1, t1, v2, t2):
    return v1 + block_exp_numeric(aleph, t1) @ v2, t1 + t2


def rep_exp_tj(aleph, t):
    """e^{tJ} with its atoms kept: the lower-right d x d block of
    group_rep_G at [0, t]."""
    g = group_element(aleph, (0,) * aleph.dim, t)
    return RepMatrix(tuple(row[1:] for row in group_rep_G(aleph, g).entries[1:]))


def cos_entry(angle, exp_arg=0):
    return exp_rotation(TauScalar(exp_arg), angle)[0]


def sin_entry(angle, exp_arg=0):
    return exp_rotation(TauScalar(exp_arg), angle)[1]


class TestEntries:
    def test_zero_coefficient_collapses(self):
        assert make_entry(0, TAU) == ZERO

    def test_plain_scalar_passthrough(self):
        assert make_entry(Fraction(3, 2), 0) == TauScalar(Fraction(3, 2))

    def test_exponential_survives(self):
        e = make_entry(1, TAU)
        assert isinstance(e, ExpAtom)
        assert str(e) == "exp(tau)"

    def test_cos_quarter_turns(self):
        assert cos_entry(ZERO) == ONE
        assert cos_entry(TAU / 4) == ZERO
        assert cos_entry(TAU / 2) == -ONE
        assert cos_entry(TAU * 3 / 4) == ZERO
        assert cos_entry(TAU * 5) == ONE

    def test_sin_quarter_turns(self):
        assert sin_entry(ZERO) == ZERO
        assert sin_entry(TAU / 4) == ONE
        assert sin_entry(-TAU / 4) == -ONE
        assert sin_entry(TAU * 7) == ZERO

    def test_third_turn_stays_symbolic(self):
        e = cos_entry(TAU / 3)
        assert isinstance(e, ExpAtom)
        assert entry_numeric(e) == pytest.approx(math.cos(2 * math.pi / 3))

    def test_parity_normalization(self):
        assert cos_entry(-TAU / 3) == cos_entry(TAU / 3)
        assert sin_entry(-TAU / 3) == -sin_entry(TAU / 3)

    def test_numeric_value(self):
        e = sin_entry(TAU / 8, 1) * Fraction(1, 2)
        assert entry_numeric(e) == pytest.approx(0.5 * math.e * math.sin(math.pi / 4))

    def test_string_forms(self):
        assert str(make_entry(Fraction(3, 2), TauScalar(2))) == "3/2*exp(2)"
        assert str(sin_entry(TAU / 3)) == "sin(1/3*tau)"
        assert str(cos_entry(TAU / 3, 1) * (TAU / 2)) == "(1/2*tau)*exp(1)*cos(1/3*tau)"


class TestRepMatrix:
    def test_exact_round_trip(self, heis):
        r = rep_exp_tj(heis, 3)
        assert r.is_exact
        assert r.exact() == ((ONE, TauScalar(3)), (ZERO, ONE))

    def test_exact_raises_on_atoms(self, e2):
        r = rep_exp_tj(e2, 1)
        assert not r.is_exact
        with pytest.raises(ExactnessUnavailable, match=r"\(0, 0\)"):
            r.exact()

    def test_numeric_matches_closed_form(self, e2):
        got = rep_exp_tj(e2, 1).numeric()
        want = np.array(
            [[math.cos(1), -math.sin(1)], [math.sin(1), math.cos(1)]]
        )
        assert np.abs(got - want).max() < 1e-15

    def test_mul_exact_only(self, heis, e2):
        a = rep_exp_tj(heis, 2)
        b = rep_exp_tj(heis, 5)
        assert a.mul(b) == rep_exp_tj(heis, 7)
        with pytest.raises(ExactnessUnavailable):
            rep_exp_tj(e2, 1).mul(rep_exp_tj(e2, 1))

    def test_identity_detection(self, e2):
        assert rep_exp_tj(e2, TAU).is_identity
        assert not rep_exp_tj(e2, TAU / 2).is_identity
        assert not rep_exp_tj(e2, 1).is_identity


class TestRepExpTJ:
    def test_nilpotent_block(self, heis):
        assert rep_exp_tj(heis, 3).exact() == (
            (ONE, TauScalar(3)),
            (ZERO, ONE),
        )

    def test_full_turn_is_identity(self, e2):
        assert rep_exp_tj(e2, TAU).is_identity

    def test_half_turn(self, e2):
        assert rep_exp_tj(e2, TAU / 2).exact() == (
            (-ONE, ZERO),
            (ZERO, -ONE),
        )

    def test_mixed_datum_exact_at_torsion_time(self):
        aleph = multiplicity_function(
            {(GaussRational(0, 0), 2): 1, (GaussRational(0, 1), 1): 1}
        )
        r = rep_exp_tj(aleph, TAU)
        assert r.is_exact
        assert r.exact()[0][1] == TAU
        assert r.exact()[2][2] == ONE

    def test_realified_block_atoms(self):
        aleph = multiplicity_function({(GaussRational(1, 2), 1): 1})
        r = rep_exp_tj(aleph, 1)
        top = r.entries[0][0]
        assert isinstance(top, ExpAtom)
        assert top.exp_arg == ONE
        assert top.trig == "cos"
        assert top.trig_arg == TauScalar(2)
        assert r.numeric()[0][0] == pytest.approx(math.e * math.cos(2))

    @pytest.mark.parametrize("t", [-2.0, -0.5, 0.3, 1.0, 2.7])
    def test_matches_numeric_exponential(self, mix, t):
        frac = Fraction(t).limit_denominator(10**6)
        got = rep_exp_tj(mix, frac).numeric()
        want = block_exp_numeric(mix, float(frac))
        assert np.abs(got - want).max() < 1e-12


class TestAlgebraRep:
    def test_rotation_generator(self, e2):
        x = algebra_element(e2, (0, 0), 1)
        assert algebra_rep(e2, x).exact() == (
            (ZERO, ZERO, ZERO),
            (ZERO, ZERO, -ONE),
            (ZERO, ONE, ZERO),
        )

    def test_translation_generator(self, e2):
        x = algebra_element(e2, (1, 0), 0)
        r = algebra_rep(e2, x).exact()
        assert r[1][0] == ONE
        assert all(r[i][j] == ZERO for i in range(3) for j in range(3) if (i, j) != (1, 0))

    def test_bracket_compatibility(self, heis, e2, mix):
        for aleph in (heis, e2, mix):
            d = aleph.dim
            x = algebra_element(aleph, tuple(Fraction(i + 1, 2) for i in range(d)), 1)
            y = algebra_element(aleph, tuple(Fraction(i - 1, 3) for i in range(d)), 2)
            rx = algebra_rep(aleph, x).exact()
            ry = algebra_rep(aleph, y).exact()
            lie = mat_mul(rx, ry)
            lie = tuple(
                tuple(lie[i][j] - mat_mul(ry, rx)[i][j] for j in range(d + 1))
                for i in range(d + 1)
            )
            assert lie == algebra_rep(aleph, commutator(aleph, x, y)).exact()


class TestGroupReps:
    def test_heis_frozen(self, heis):
        g = group_element(heis, (4, 2), 3)
        assert group_rep_G(heis, g).exact() == (
            (ONE, ZERO, ZERO),
            (TauScalar(4), ONE, TauScalar(3)),
            (TauScalar(2), ZERO, ONE),
        )

    def test_g_rep_kernel_is_torsion(self, e2):
        assert group_rep_G(e2, group_element(e2, (0, 0), TAU)).is_identity
        assert group_rep_G(e2, group_element(e2, (0, 0), TAU * 3)).is_identity
        assert not group_rep_G(e2, group_element(e2, (0, 0), TAU / 2)).is_identity
        assert not group_rep_G(e2, group_element(e2, (1, 0), 0)).is_identity

    def test_gi_gii_split_torsion_kernel(self, e2):
        torsion_elt = group_element(e2, (0, 0), TAU)
        gi = group_rep_GI(e2, torsion_elt)
        assert not gi.is_identity
        gii = group_rep_GII(e2, torsion_elt).exact()
        assert gii[3][0] == TAU
        assert gii[3][3] == ONE

    def test_exact_homomorphism(self, heis):
        # the corner of the first faithful variant carries e^t, so only the
        # base and second variants stay exact at nonzero times
        g = group_element(heis, (4, 2), 3)
        h = group_element(heis, (1, -1), 2)
        gh = group_mul(heis, g, h)
        for rep in (group_rep_G, group_rep_GII):
            assert rep(heis, g).mul(rep(heis, h)) == rep(heis, gh)

    @pytest.mark.parametrize("kind", ["G", "GI", "GII"])
    def test_numeric_homomorphism(self, heis, e2, mix, e2_r2, kind):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for aleph in (heis, e2, mix, e2_r2):
            d = aleph.dim
            for _ in range(100):
                v1, v2 = rng.normal(size=d), rng.normal(size=d)
                t1, t2 = rng.normal(), rng.normal()
                v3, t3 = numeric_mul(aleph, v1, t1, v2, t2)
                lhs = group_rep_numeric(aleph, v1, t1, kind) @ group_rep_numeric(
                    aleph, v2, t2, kind
                )
                rhs = group_rep_numeric(aleph, v3, t3, kind)
                worst = max(worst, np.abs(lhs - rhs).max())
        assert worst < 1e-9

    def test_gi_derivative_matches_algebra_embedding(self, heis):
        x = algebra_element(heis, (Fraction(1, 2), 3), 2)
        eps = Fraction(1, 10**6)

        def rep_at(s):
            scaled = algebra_element(
                heis, tuple(c * s for c in x.v), x.t * s
            )
            return group_rep_GI(heis, exp_map(heis, scaled)).numeric()

        derivative = (rep_at(eps) - rep_at(-eps)) / (2 * float(eps))
        # the algebra representation plus the corner t
        want = np.zeros((4, 4))
        want[:3, :3] = algebra_rep(heis, x).numeric()
        want[3, 3] = float(x.t)
        assert np.abs(derivative - want).max() < 1e-6

    def test_simply_connected(self, heis, aff, e2, mix):
        assert is_simply_connected_G(heis)
        assert is_simply_connected_G(aff)
        assert not is_simply_connected_G(e2)
        assert not is_simply_connected_G(mix)


class TestDecompose:
    def test_splits_trailing_euclidean_factor(self, e2_r2, e2):
        dec = decompose(e2_r2)
        assert dec.d0 == 2
        assert dec.abelian_coordinates == (2, 3)
        assert dec.core_aleph == e2

    def test_core_only(self, heis):
        dec = decompose(heis)
        assert dec.d0 == 2
        assert dec.abelian_coordinates == ()
        assert dec.core_aleph == heis

    def test_dimension_invariant(self, heis_r):
        dec = decompose(heis_r)
        assert dec.d0 + len(dec.abelian_coordinates) == heis_r.dim
        assert dec.core_aleph.dim == dec.d0


class TestQuotientChart:
    def test_time_lattice(self, e2):
        n = subgroup(e2, ((0, 0), TAU))
        g = group_element(e2, (0, 0), TAU * Fraction(5, 2))
        reduced = quotient_chart(e2, g, n)
        assert reduced.v == (ZERO, ZERO)
        assert reduced.t == TAU / 2

    def test_space_lattice(self, e2_r2):
        n = subgroup(e2_r2, ((0, 0, 1, 0), 0))
        g = group_element(e2_r2, (0, 0, 2, 1), 0)
        reduced = quotient_chart(e2_r2, g, n)
        assert reduced.v == (ZERO, ZERO, ZERO, ONE)
        assert reduced.t == ZERO

    def test_rank_two_lattice(self, e2_r2):
        n = subgroup(e2_r2, ((0, 0, 1, 0), 0), ((0, 0, 0, 0), TAU))
        g = group_element(
            e2_r2, (0, 0, Fraction(7, 2), 1), TAU * Fraction(5, 2)
        )
        reduced = quotient_chart(e2_r2, g, n)
        assert reduced.v == (ZERO, ZERO, TauScalar(Fraction(1, 2)), ONE)
        assert reduced.t == TAU / 2

    def test_irrational_coordinate(self, e2_r2):
        n = subgroup(e2_r2, ((0, 0, 1, 0), 0))
        g = group_element(e2_r2, (0, 0, -TAU / 4, 1), 0)
        reduced = quotient_chart(e2_r2, g, n)
        assert reduced.v == (ZERO, ZERO, 2 - TAU / 4, ONE)

    def test_idempotent(self, e2):
        n = subgroup(e2, ((0, 0), TAU))
        g = group_element(e2, (0, 0), -TAU * Fraction(13, 3))
        once = quotient_chart(e2, g, n)
        assert quotient_chart(e2, once, n) == once

    def test_identity_fixed(self, e2_r2):
        n = subgroup(e2_r2, ((0, 0, 1, 0), 0))
        ident = group_element(e2_r2, (0, 0, 0, 0), 0)
        assert quotient_chart(e2_r2, ident, n) == ident


class TestBuildP:
    def test_greedy_identity(self, e2_r2):
        n = subgroup(e2_r2, ((0, 0, 1, 0), 0))
        p, par, perp = build_P(decompose(e2_r2), n)
        assert p == tuple(
            tuple(ONE if i == j else ZERO for j in range(3)) for i in range(3)
        )
        assert len(par) == 1
        assert len(perp) == 2

    def test_maps_generators_to_unit_vectors(self, e2_r2):
        n = subgroup(e2_r2, ((0, 0, 1, 2), 0), ((0, 0, 0, 0), TAU))
        p, _, _ = build_P(decompose(e2_r2), n)
        gen_columns = (vec([1, 2, 0]), vec([0, 0, TAU]))
        for idx, col in enumerate(gen_columns):
            image = mat_vec(p, col)
            assert image == tuple(
                ONE if i == idx else ZERO for i in range(3)
            )

    def test_unsupported_generator(self, heis):
        n = subgroup(heis, ((1, 0), 0))
        with pytest.raises(UnsupportedLattice, match="normalize"):
            build_P(decompose(heis), n)

    def test_dependent_generators_rejected(self, e2_r2):
        # the lattice constructor rejects them before build_P is reached
        with pytest.raises(InvalidSubgroup, match="dependent"):
            subgroup(e2_r2, ((0, 0, 1, 0), 0), ((0, 0, 2, 0), 0))


class TestQuotientRep:
    def test_dimension(self, e2_r2, e2):
        n = subgroup(e2_r2, ((0, 0, 1, 0), 0))
        assert quotient_faithful_rep(e2_r2, n).dimension == 7
        n2 = subgroup(e2, ((0, 0), TAU))
        assert quotient_faithful_rep(e2, n2).dimension == 5

    def test_kernel_contains_generators(self, e2_r2):
        n = subgroup(e2_r2, ((0, 0, 1, 0), 0))
        q = quotient_faithful_rep(e2_r2, n)
        assert q.matrix(group_element(e2_r2, (0, 0, 1, 0), 0)).is_identity
        assert q.matrix(group_element(e2_r2, (0, 0, -3, 0), 0)).is_identity

    def test_kernel_excludes_fractions(self, e2_r2):
        n = subgroup(e2_r2, ((0, 0, 1, 0), 0))
        q = quotient_faithful_rep(e2_r2, n)
        half = q.matrix(group_element(e2_r2, (0, 0, Fraction(1, 2), 0), 0))
        assert not half.is_identity
        assert half.entries[3][3] == -ONE

    def test_kernel_excludes_off_lattice_center(self, e2_r2):
        n = subgroup(e2_r2, ((0, 0, 1, 0), 0))
        q = quotient_faithful_rep(e2_r2, n)
        m = q.matrix(group_element(e2_r2, (0, 0, 0, 0), TAU))
        assert not m.is_identity

    def test_time_lattice_kernel(self, e2):
        n = subgroup(e2, ((0, 0), TAU))
        q = quotient_faithful_rep(e2, n)
        assert q.matrix(group_element(e2, (0, 0), TAU)).is_identity
        assert q.matrix(group_element(e2, (0, 0), TAU * -4)).is_identity
        assert not q.matrix(group_element(e2, (0, 0), TAU / 2)).is_identity
        assert not q.matrix(group_element(e2, (1, 0), 0)).is_identity

    def test_empty_subgroup_reduces_to_split_form(self, e2_r2):
        n = subgroup(e2_r2)
        q = quotient_faithful_rep(e2_r2, n)
        assert q.dimension == e2_r2.dim + 2
        g = group_element(e2_r2, (0, 0, 2, 0), 0)
        m = q.matrix(g).entries
        assert isinstance(m[3][3], ExpAtom)
        assert m[3][3].exp_arg == TauScalar(2)
        ident = group_element(e2_r2, (0, 0, 0, 0), 0)
        assert q.matrix(ident).is_identity

    def test_numeric_homomorphism(self, e2_r2):
        n = subgroup(e2_r2, ((0, 0, 1, 0), 0))
        q = quotient_faithful_rep(e2_r2, n)
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(300):
            v1, v2 = rng.normal(size=4), rng.normal(size=4)
            t1, t2 = rng.normal(), rng.normal()
            v3, t3 = numeric_mul(e2_r2, v1, t1, v2, t2)
            dev = np.abs(
                quotient_rep_numeric(q, v1, t1) @ quotient_rep_numeric(q, v2, t2)
                - quotient_rep_numeric(q, v3, t3)
            ).max()
            worst = max(worst, dev)
        assert worst < 1e-9

    def test_matrix_agrees_with_numeric(self, e2_r2):
        n = subgroup(e2_r2, ((0, 0, 1, 0), 0))
        q = quotient_faithful_rep(e2_r2, n)
        g = group_element(e2_r2, (1, 2, Fraction(1, 3), -1), Fraction(3, 4))
        sym = q.matrix(g).numeric()
        num = quotient_rep_numeric(q, np.array([1.0, 2.0, 1 / 3, -1.0]), 0.75)
        assert np.abs(sym - num).max() < 1e-12
