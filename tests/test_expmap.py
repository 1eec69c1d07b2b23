"""Exponential machinery: phi, block exponentials, exp/log, torsion,
exponentiality, dilations, center."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from almostabelian.errors import ExactnessUnavailable, NotCentral, NoWitness
from almostabelian.expmap import (
    DilationGroup,
    block_exp,
    center,
    central_log,
    dilation_conjugator,
    dilation_contains,
    dilation_group,
    e2_witness,
    exp_map,
    group_mul,
    is_central,
    is_exponential,
    phi_matrix,
    torsion,
)
from almostabelian.jordan import (
    algebra_element,
    build_jordan,
    group_element,
    multiplicity_function,
)
from almostabelian.linalg import identity, is_invertible, mat, mat_mul, vec
from almostabelian.numeric import block_exp_numeric, phi_numeric
from almostabelian.oracle import CROSSCHECK_TOL
from almostabelian.scalars import TAU, GaussRational, TauScalar, as_tau

SEED = 0x5EED


def numeric_jordan(aleph):
    return np.array(
        [[float(x) for x in row] for row in build_jordan(aleph)], dtype=float
    )


class TestPhiMatrix:
    def test_heis_t3(self, heis):
        assert phi_matrix(3, heis) == mat([[1, Fraction(3, 2)], [0, 1]])

    def test_t0_is_identity(self, heis, e2, mix):
        for aleph in (heis, e2, mix):
            assert phi_matrix(0, aleph) == identity(aleph.dim)

    def test_e2_full_turn_vanishes(self, e2):
        assert phi_matrix(TAU, e2) == mat([[0, 0], [0, 0]])

    def test_torsion_time_projects_on_kernel(self, e2_r2):
        got = phi_matrix(TAU, e2_r2)
        expected = mat(
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        assert got == expected

    def test_exact_unavailable(self, aff):
        with pytest.raises(ExactnessUnavailable):
            phi_matrix(1, aff)

    def test_phi_identity_exact_nilpotent(self, heis_r):
        t = as_tau(Fraction(7, 3))
        j = build_jordan(heis_r)
        tj = mat([[t * x for x in row] for row in j])
        lhs = mat_mul(phi_matrix(t, heis_r), tj)
        rhs = mat(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(block_exp(t, heis_r), identity(3))
            ]
        )
        assert lhs == rhs

    def test_phi_identity_numeric(self, mix, e2_r2, aff):
        rng = np.random.default_rng(SEED)
        for aleph in (mix, e2_r2, aff):
            jn = numeric_jordan(aleph)
            for _ in range(20):
                t = float(rng.uniform(-4, 4))
                lhs = phi_numeric(aleph, t) @ (t * jn)
                rhs = block_exp_numeric(aleph, t) - np.eye(aleph.dim)
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_phi_numeric_matches_series_near_zero(self, e2):
        jn = numeric_jordan(e2)
        t = 1e-4
        got = phi_numeric(e2, t)
        series = np.eye(2) + (t * jn) / 2 + (t * jn) @ (t * jn) / 6
        assert np.max(np.abs(got - series)) < 1e-13


class TestBlockExp:
    def test_heis_t1(self, heis):
        assert block_exp(1, heis) == mat([[1, 1], [0, 1]])

    def test_e2_full_turn(self, e2):
        assert block_exp(TAU, e2) == identity(2)

    def test_e2_numeric_rotation(self, e2):
        got = block_exp_numeric(e2, 0.5)
        expected = np.array(
            [[np.cos(0.5), -np.sin(0.5)], [np.sin(0.5), np.cos(0.5)]]
        )
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_matches_generic_expm(self, heis, aff, e2, mix, heis_r, e2_r2):
        rng = np.random.default_rng(SEED)
        for aleph in (heis, aff, e2, mix, heis_r, e2_r2):
            jn = numeric_jordan(aleph)
            for _ in range(5):
                t = float(rng.uniform(-3, 3))
                ours = block_exp_numeric(aleph, t)
                reference = scipy.linalg.expm(t * jn)
                assert np.max(np.abs(ours - reference)) < 1e-10

    def test_mixed_datum_partial_exactness(self):
        # nilpotent block exact at any t; rotation block exact at full turns
        aleph = multiplicity_function(
            {(GaussRational(0), 2): 1, (GaussRational(0, 1), 1): 1}
        )
        got = block_exp(TAU, aleph)
        expected_rows = [
            [1, TAU, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
        assert got == mat(expected_rows)
        with pytest.raises(ExactnessUnavailable):
            block_exp(1, aleph)


class TestQuarterTurn:
    """At a quarter turn cos and sin are 0 and +-1, so rotation blocks are exact."""

    def test_group_mul(self, e2):
        g = group_element(e2, (0, 0), TAU / 4)
        h = group_element(e2, (1, 0), 0)
        assert str(group_mul(e2, g, h)) == "[0, 1 | 1/4*tau]"

    def test_exp_map(self, e2):
        g = exp_map(e2, algebra_element(e2, (1, 0), TAU / 4))
        assert all(isinstance(x, TauScalar) for x in g.v)
        assert g.v == (4 / TAU, 4 / TAU)

    @pytest.mark.parametrize("quarters", [1, 2, 3, -1, 6])
    def test_matches_numeric(self, e2, e2_r2, quarters):
        rot2 = multiplicity_function({(GaussRational(0, 1), 2): 1})
        t = TAU * quarters / 4
        tol = CROSSCHECK_TOL
        for aleph in (e2, e2_r2, rot2):
            for exact, numeric in (
                (phi_matrix(t, aleph), phi_numeric(aleph, float(t))),
                (block_exp(t, aleph), block_exp_numeric(aleph, float(t))),
            ):
                got = np.array([[float(x) for x in row] for row in exact])
                assert np.max(np.abs(got - numeric)) < tol


class TestExpMap:
    def test_heis_frozen(self, heis):
        got = exp_map(heis, algebra_element(heis, [1, 2], 3))
        assert got == group_element(heis, [4, 2], 3)

    def test_zero_maps_to_identity(self, mix):
        got = exp_map(mix, algebra_element(mix, [0, 0, 0, 0], 0))
        assert got.is_identity

    def test_central_cylinder_is_identity_map(self, e2_r2):
        x = algebra_element(e2_r2, [0, 0, 1, 0], 1)
        assert exp_map(e2_r2, x) == group_element(e2_r2, [0, 0, 1, 0], 1)

    def test_torsion_time_kills_rotation_component(self, e2):
        got = exp_map(e2, algebra_element(e2, [5, 7], TAU))
        assert got == group_element(e2, [0, 0], TAU)

    def test_one_parameter_property_numeric(self, heis, aff, e2, mix):
        rng = np.random.default_rng(SEED)
        for aleph in (heis, aff, e2, mix):
            d = aleph.dim
            for _ in range(10):
                v = rng.uniform(-2, 2, size=d)
                t = float(rng.uniform(-2, 2))
                s1, s2 = rng.uniform(-2, 2, size=2)
                x = algebra_element(
                    aleph,
                    [Fraction(c).limit_denominator(10**6) for c in v],
                    Fraction(t).limit_denominator(10**6),
                )
                scaled = lambda s: algebra_element(  # noqa: E731
                    aleph,
                    [Fraction(s * c).limit_denominator(10**6) for c in v],
                    Fraction(s * t).limit_denominator(10**6),
                )
                va, ta = exp_map(aleph, scaled(s1), mode="numeric")
                vb, tb = exp_map(aleph, scaled(s2), mode="numeric")
                vc, tc = exp_map(aleph, scaled(s1 + s2), mode="numeric")
                prod_v = va + block_exp_numeric(aleph, ta) @ vb
                assert np.max(np.abs(prod_v - vc)) < 1e-6
                assert abs((ta + tb) - tc) < 1e-9

    def test_collision_when_not_exponential(self, e2):
        w = e2_witness(e2)
        collided = exp_map(
            e2, algebra_element(e2, w.collision_vector, w.collision_time)
        )
        trivial = exp_map(
            e2, algebra_element(e2, [0, 0], w.collision_time)
        )
        assert collided == trivial

    def test_numeric_injectivity_when_exponential(self):
        aleph = multiplicity_function({(GaussRational(1, 1), 1): 1})
        rng = np.random.default_rng(SEED)
        jn = numeric_jordan(aleph)
        for _ in range(1000):
            v1, v2 = rng.uniform(-3, 3, size=(2, 2))
            t1, t2 = rng.uniform(-3, 3, size=2)
            if abs(t1 - t2) < 1e-6 and np.max(np.abs(v1 - v2)) < 1e-6:
                continue
            p1 = phi_numeric(aleph, t1) @ v1
            p2 = phi_numeric(aleph, t2) @ v2
            assert abs(t1 - t2) > 1e-9 or np.max(np.abs(p1 - p2)) > 1e-9


class TestCentralLog:
    def test_round_trip(self, e2_r2):
        g = group_element(e2_r2, [0, 0, 2, 3], TAU)
        x = central_log(e2_r2, g)
        assert exp_map(e2_r2, x) == g

    def test_identity(self, heis):
        x = central_log(heis, group_element(heis, [0, 0], 0))
        assert x.v == vec([0, 0]) and x.t.is_zero

    def test_heis_kernel_direction(self, heis):
        x = central_log(heis, group_element(heis, [1, 0], 0))
        assert x.v == vec([1, 0])

    def test_rejects_off_kernel(self, e2):
        with pytest.raises(NotCentral):
            central_log(e2, group_element(e2, [1, 0], 0))


class TestTorsion:
    def test_e2(self, e2):
        t = torsion(e2)
        assert not t.is_trivial
        assert t.omega0 == 1 and t.t0 == TAU

    def test_mix(self, mix):
        t = torsion(mix)
        assert t.omega0 == Fraction(1, 3)
        assert t.t0 == 3 * TAU

    def test_heis_trivial(self, heis):
        assert torsion(heis).is_trivial

    def test_size_two_rotation_block_trivial(self):
        aleph = multiplicity_function({(GaussRational(0, 1), 2): 1})
        assert torsion(aleph).is_trivial

    def test_membership(self, mix):
        t = torsion(mix)
        assert t.contains(0)
        assert t.contains(3 * TAU)
        assert t.contains(-6 * TAU)
        assert not t.contains(TAU)
        assert not t.contains(as_tau(3))

    speeds = st.sampled_from([Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2), 2])
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    @given(st.data())
    @settings(max_examples=80)
    def test_multiple_agrees_with_division(self, data):
        # the multiple read off t's coefficients is t / t0 when that is an
        # integer; times are rational, tau multiples and rational functions,
        # some built on k*t0 (k*tau on trivial T)
        speeds = data.draw(st.lists(self.speeds, max_size=3, unique=True))
        blocks = {(GaussRational(0, b), 1): 1 for b in speeds} or {(GaussRational(0), 2): 1}
        tor = torsion(multiplicity_function(blocks))
        k, a, b = data.draw(st.integers(-4, 4)), data.draw(self.small), data.draw(self.small)
        multiple = k * (TAU if tor.is_trivial else tor.t0)
        time = data.draw(st.sampled_from(
            [as_tau(a), a * TAU, multiple, multiple / (b + TAU), (a + multiple) / (b + TAU)]
        ))
        if time.is_zero:
            want = 0
        elif tor.is_trivial or not (time / tor.t0).is_integer:
            want = None
        else:
            want = (time / tor.t0).as_integer()
        assert tor.multiple(time) == want
        assert tor.contains(time) is (want is not None)

    def test_omega_divides_speeds(self, mix, e2_r2):
        for aleph in (mix, e2_r2):
            t = torsion(aleph)
            for eig, size, _ in aleph.entries:
                if eig.im:
                    assert (abs(eig.im) / t.omega0).denominator == 1


class TestExponentiality:
    def test_e2_not_exponential(self, e2):
        verdict = is_exponential(e2)
        assert not verdict.exponential
        assert verdict.witness == GaussRational(0, 1)

    def test_heis_exponential(self, heis):
        verdict = is_exponential(heis)
        assert verdict.exponential and verdict.witness is None

    def test_offaxis_complex_exponential(self):
        aleph = multiplicity_function({(GaussRational(1, 1), 1): 1})
        assert is_exponential(aleph).exponential

    def test_witness_e2(self, e2):
        w = e2_witness(e2)
        assert w.coordinates == (0, 1)
        assert w.restriction == mat([[0, -1], [1, 0]])

    def test_witness_mix_first_block(self, mix):
        w = e2_witness(mix)
        assert w.block_index == 0
        assert w.restriction == mat(
            [[0, Fraction(-2, 3)], [Fraction(2, 3), 0]]
        )
        assert w.collision_time == TAU * as_tau(Fraction(3, 2))

    def test_witness_error_on_exponential(self, heis):
        with pytest.raises(NoWitness):
            e2_witness(heis)


class TestDilations:
    def test_frozen_cases(self, heis, aff, e2):
        assert dilation_group(heis) is DilationGroup.ALL_NONZERO
        assert dilation_group(aff) is DilationGroup.TRIVIAL
        assert dilation_group(e2) is DilationGroup.PLUS_MINUS_ONE

    def test_symmetric_real_pair(self):
        aleph = multiplicity_function(
            {(GaussRational(1), 1): 2, (GaussRational(-1), 1): 2}
        )
        assert dilation_group(aleph) is DilationGroup.PLUS_MINUS_ONE

    def test_contains(self, heis, aff, e2):
        assert dilation_contains(heis, Fraction(5, 7))
        assert not dilation_contains(heis, 0)
        assert dilation_contains(aff, 1) and not dilation_contains(aff, -1)
        assert dilation_contains(e2, -1) and not dilation_contains(e2, 2)

    def test_conjugator_solves_twisting_equation(self, heis, e2, heis_r):
        cases = [
            (heis, as_tau(Fraction(5, 3))),
            (heis, as_tau(-2)),
            (heis_r, as_tau(7)),
            (e2, as_tau(-1)),
        ]
        sym = multiplicity_function(
            {(GaussRational(1, 2), 2): 1, (GaussRational(-1, 2), 2): 1}
        )
        cases.append((sym, as_tau(-1)))
        for aleph, alpha in cases:
            delta = dilation_conjugator(aleph, alpha)
            j = build_jordan(aleph)
            lhs = mat_mul(delta, j)
            rhs = mat_mul(mat([[alpha * x for x in row] for row in j]), delta)
            assert lhs == rhs
            assert is_invertible(delta)

    def test_conjugator_rejects_outsiders(self, aff):
        with pytest.raises(ValueError):
            dilation_conjugator(aff, -1)


class TestCenter:
    def test_heis(self, heis):
        c = center(heis)
        assert c.kernel_basis == (vec([1, 0]),)
        assert c.torsion.is_trivial
        assert c.contains(group_element(heis, [3, 0], 0))
        assert not c.contains(group_element(heis, [0, 0], 1))

    def test_e2(self, e2):
        c = center(e2)
        assert c.kernel_basis == ()
        assert c.contains(group_element(e2, [0, 0], TAU))
        assert not c.contains(group_element(e2, [1, 0], TAU))

    def test_e2_r2(self, e2_r2):
        c = center(e2_r2)
        assert len(c.kernel_basis) == 2
        assert is_central(e2_r2, group_element(e2_r2, [0, 0, 1, 2], -2 * TAU))
        assert not is_central(e2_r2, group_element(e2_r2, [0, 0, 1, 2], TAU / as_tau(2)))


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
@settings(max_examples=20)
def test_fabc_probe(i, j):
    """Conjugation-compatible triples satisfy exp(A) B = B exp(C)."""
    rng = np.random.default_rng(SEED + 13 * i + j)
    c = rng.uniform(-1, 1, size=(3, 3))
    b = rng.uniform(-1, 1, size=(3, 3)) + 3 * np.eye(3)
    a = b @ c @ np.linalg.inv(b)
    assert np.allclose(a @ b, b @ c, atol=1e-8)
    lhs = scipy.linalg.expm(a) @ b
    rhs = b @ scipy.linalg.expm(c)
    assert np.max(np.abs(lhs - rhs)) < 1e-8
