"""Tests for automorphism validation, action, and composition."""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from almostabelian import autos, linalg, scalars
from almostabelian.autos import (
    Automorphism,
    GenericAut,
    HeisAut,
    InnerAut,
    apply_aut,
    compose,
    differential,
    identity_aut,
    inner_as_generic,
    inner_aut,
    invert,
    is_heisenberg_extension,
    validate_aut,
)
from almostabelian.errors import InvalidAutomorphism
from almostabelian.expmap import apply_exp_integral, group_inverse, group_mul
from almostabelian.jordan import (
    algebra_element,
    build_jordan,
    commutator,
    group_element,
    multiplicity_function,
)
from almostabelian.lattices import preserves_lattice, subgroup_from_data
from almostabelian.linalg import identity, is_invertible, mat, mat_mul, mat_vec, vec
from almostabelian.numeric import apply_aut_numeric
from almostabelian.scalars import TAU, GaussRational, TauScalar

SEED = 0x5EED

ZERO = TauScalar(0)
ONE = TauScalar(1)

FLIP = GenericAut(((1, 0), (0, -1)), (0, 0), -1)


def rand_fraction(rng, span=4, den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


class TestCoercion:
    """Each entry of a datum goes through as_tau once: GenericAut and
    HeisAut coerce their parameters and build the differential from the
    coerced entries, and Automorphism(matrix) coerces its public input."""

    @staticmethod
    def coerced(build) -> list:
        seen = []

        def spy(x):
            seen.append(x)
            return scalars.as_tau(x)

        with mock.patch.object(linalg, "as_tau", spy), mock.patch.object(autos, "as_tau", spy):
            build()
        return seen

    def test_generic(self):
        delta = [[1, Fraction(1, 2), 0], [0, 1, 0], [0, 0, 2]]
        seen = self.coerced(lambda: GenericAut(delta, [1, 0, TAU], 3))
        assert len(seen) == 9 + 3 + 1

    def test_heis(self):
        seen = self.coerced(
            lambda: HeisAut(
                2, beta2=1, gamma1=3, gamma2=1, delta12=1, delta22=1,
                phi01=(1, 0), eta=(0, 2), rho=(1, 1), phi11=((1, 0), (1, 1)),
            )
        )
        assert len(seen) == 6 + 3 * 2 + 2 * 2

    def test_public_matrix(self):
        seen = self.coerced(lambda: Automorphism([[1, 0], [Fraction(1, 3), 2]]))
        assert len(seen) == 4


class TestCaseDetection:
    def test_heisenberg_data(self, heis, heis_r):
        assert is_heisenberg_extension(heis)
        assert is_heisenberg_extension(heis_r)

    def test_other_data(self, e2, aff, mix, e2_r2):
        for aleph in (e2, aff, mix, e2_r2):
            assert not is_heisenberg_extension(aleph)

    def test_larger_blocks_rejected(self):
        aleph = multiplicity_function({(GaussRational(0, 0), 3): 1})
        assert not is_heisenberg_extension(aleph)
        two = multiplicity_function({(GaussRational(0, 0), 2): 2})
        assert not is_heisenberg_extension(two)


class TestValidation:
    def test_flip_on_rotation(self, e2):
        assert validate_aut(e2, FLIP) == ()

    def test_minus_identity_fails_relation(self, e2):
        bad = GenericAut(((-1, 0), (0, -1)), (0, 0), -1)
        report = validate_aut(e2, bad)
        assert any("Delta J" in line for line in report)

    def test_identity_aut(self, e2, heis, mix):
        for aleph in (e2, heis, mix):
            assert validate_aut(aleph, identity_aut(aleph)) == ()

    def test_singular_delta(self, e2):
        bad = GenericAut(((0, 0), (0, 0)), (0, 0), 1)
        assert any("singular" in line for line in validate_aut(e2, bad))

    def test_dilation_violation(self, e2):
        # alpha = 2 solves no Delta relation on a rotation, and even with a
        # fabricated Delta the dilation group {1, -1} rejects it
        bad = GenericAut(((2, 0), (0, 1)), (0, 0), 2)
        assert any("dilation" in line for line in validate_aut(e2, bad))

    def test_heis_on_wrong_datum(self, e2):
        # beta2 = 1 puts a nonzero entry into the time row, which only a
        # Heisenberg extension admits; HeisAut(alpha=1) alone is the
        # identity differential, an automorphism of every group
        phi = HeisAut(alpha=1, beta2=1)
        assert any("Heisenberg" in line for line in validate_aut(e2, phi))
        assert validate_aut(e2, HeisAut(alpha=1)) == ()

    def test_heis_corner_must_be_the_invariant(self, heis):
        phi = GenericAut(((2, 0), (0, 1)), (0, 0), 1)
        assert validate_aut(heis, phi) == (
            "the corner must equal alpha*delta22 - beta2*gamma2",
        )

    def test_zero_alpha_composite(self, heis):
        # y and t swap: the product of two valid ten-parameter data has
        # time row (0, 1, 0), so alpha = 0 is a valid automorphism here
        both = compose(HeisAut(alpha=1, beta2=1), HeisAut(alpha=1, gamma2=-1))
        assert both.alpha == ZERO
        assert validate_aut(heis, both) == ()
        g = group_element(heis, (1, 2), 3)
        assert apply_aut(heis, invert(both), apply_aut(heis, both, g)) == g

    def test_heis_invariant_zero(self, heis):
        phi = HeisAut(alpha=1, delta22=0, beta2=0, gamma2=1)
        assert any("nonzero" in line for line in validate_aut(heis, phi))

    def test_heis_singular_phi11(self, heis_r):
        phi = HeisAut(
            alpha=1, phi01=(0,), eta=(0,), rho=(0,), phi11=((0,),)
        )
        assert any("phi11" in line for line in validate_aut(heis_r, phi))

    def test_zero_alpha_rejected(self):
        with pytest.raises(InvalidAutomorphism):
            GenericAut(((1, 0), (0, 1)), (0, 0), 0)

    @pytest.mark.parametrize(
        "delta",
        [((1, 0, 0, 5), (0, 1, 0), (0, 0, 1)), ((1, 0), (0, 1), (0, 0))],
        ids=["ragged", "3x2"],
    )
    def test_non_square_delta_rejected(self, delta):
        with pytest.raises(InvalidAutomorphism, match="square"):
            GenericAut(delta, (0, 0, 0), 1)

    def test_inner_always_valid(self, heis):
        phi = inner_aut(heis, group_element(heis, (1, 2), 3))
        assert validate_aut(heis, phi) == ()


class TestFit:
    """Every family is checked against the group before it acts."""

    @pytest.mark.parametrize("mode", ["exact", "numeric"])
    def test_generic_of_another_dimension(self, heis_r, mode):
        phi = GenericAut(((1,),), (0,), 1)
        assert validate_aut(heis_r, phi) == ("dimension mismatch",)
        g = group_element(heis_r, (1, 2, 3), 1)
        with pytest.raises(InvalidAutomorphism, match="dimension mismatch"):
            apply_aut(heis_r, phi, g, mode=mode)
        n = subgroup_from_data(heis_r, [((0, 0, 1), 0)])
        with pytest.raises(InvalidAutomorphism, match="dimension mismatch"):
            preserves_lattice(heis_r, phi, n)

    @pytest.mark.parametrize("mode", ["exact", "numeric"])
    def test_inner_of_another_group(self, heis, e2, mode):
        phi = inner_aut(e2, group_element(e2, (1, 0), TAU / 4))
        assert validate_aut(heis, phi) == ("inner automorphism belongs to a different group",)
        g = group_element(heis, (3, 2), 1)
        with pytest.raises(InvalidAutomorphism, match="different group"):
            apply_aut(heis, phi, g, mode=mode)

    def test_compose_with_inner_checks_fit(self, e2):
        inner = inner_aut(e2, group_element(e2, (1, 0), TAU / 4))
        wide = GenericAut(identity(3), (0, 0, 0), 1)
        for pair in ((inner, wide), (wide, inner)):
            with pytest.raises(InvalidAutomorphism, match="dimension mismatch"):
                compose(*pair)
        with pytest.raises(InvalidAutomorphism, match="Heisenberg"):
            compose(inner, HeisAut(alpha=1, beta2=1))

    def test_ten_parameter_zero_pattern(self, heis_r):
        # coordinates (x, y, w, t): the family leaves column x zero below
        # the corner, and rows y and t zero on w
        off_pattern = {(1, 0), (2, 0), (3, 0), (1, 2), (3, 2)}
        g = group_element(heis_r, (1, 2, 3), 1)
        for i in range(4):
            for j in range(4):
                m = [[int(r == c) for c in range(4)] for r in range(4)]
                m[i][j] += 1
                phi = Automorphism(m)
                if (i, j) in off_pattern:
                    assert validate_aut(heis_r, phi) == (
                        "not the differential of a ten-parameter datum",
                    )
                    with pytest.raises(InvalidAutomorphism, match="ten-parameter datum"):
                        apply_aut(heis_r, phi, g)
                else:
                    assert "ten-parameter" not in " ".join(validate_aut(heis_r, phi))

    def test_time_row_off_heisenberg(self, e2_r2):
        # off a Heisenberg extension the time row is (0, ..., 0, alpha),
        # alpha nonzero
        for j in range(5):
            m = [[int(r == c) for c in range(5)] for r in range(5)]
            m[4][j] = 0 if j == 4 else 1
            with pytest.raises(InvalidAutomorphism, match="Heisenberg"):
                apply_aut(e2_r2, Automorphism(m), group_element(e2_r2, (1, 2, 3, 4), 0))

    def test_compose_dimensions_must_agree(self):
        wide = GenericAut(identity(3), (0, 0, 0), 1)
        for pair in ((FLIP, wide), (wide, FLIP), (HeisAut(alpha=1), wide)):
            with pytest.raises(InvalidAutomorphism, match="dimension mismatch"):
                compose(*pair)


class TestApply:
    @pytest.mark.parametrize("mode", ["exact", "numeric"])
    def test_heis_on_wrong_datum_rejected(self, e2, heis_r, mode):
        g = group_element(e2, (1, 1), 1)
        with pytest.raises(InvalidAutomorphism, match="Heisenberg"):
            apply_aut(e2, HeisAut(alpha=1, beta2=1), g, mode=mode)
        g = group_element(heis_r, (1, 1, 1), 1)
        with pytest.raises(InvalidAutomorphism, match="dimension mismatch"):
            apply_aut(heis_r, HeisAut(alpha=1), g, mode=mode)

    def test_flip_reverses_time(self, e2):
        g = group_element(e2, (0, 0), TAU)
        assert apply_aut(e2, FLIP, g) == group_element(e2, (0, 0), -TAU)

    def test_identity_action(self, mix):
        g = group_element(mix, (1, 2, 3, 4), TAU)
        assert apply_aut(mix, identity_aut(mix), g) == g

    def test_heis_shear_frozen(self, heis):
        # alpha = 1, delta22 = 1, beta2 = 1, rest zero:
        # [x, y, t] -> [x + y^2/2, y, y + t]
        phi = HeisAut(alpha=1, beta2=1, delta22=1)
        got = apply_aut(heis, phi, group_element(heis, (1, 2), 3))
        assert got == group_element(heis, (3, 2), 5)

    def test_generic_homomorphism_nilpotent(self, heis):
        rng = random.Random(SEED)
        phi = GenericAut(((6, 1), (0, 2)), (Fraction(1, 2), -1), 3)
        assert validate_aut(heis, phi) == ()
        for _ in range(50):
            g = group_element(
                heis, (rand_fraction(rng), rand_fraction(rng)), rand_fraction(rng)
            )
            h = group_element(
                heis, (rand_fraction(rng), rand_fraction(rng)), rand_fraction(rng)
            )
            lhs = apply_aut(heis, phi, group_mul(heis, g, h))
            rhs = group_mul(heis, apply_aut(heis, phi, g), apply_aut(heis, phi, h))
            assert lhs == rhs

    def test_generic_homomorphism_torsion_times(self, e2):
        rng = random.Random(SEED)
        for _ in range(30):
            g = group_element(
                e2, (rand_fraction(rng), rand_fraction(rng)), TAU * rng.randint(-3, 3)
            )
            h = group_element(
                e2, (rand_fraction(rng), rand_fraction(rng)), TAU * rng.randint(-3, 3)
            )
            lhs = apply_aut(e2, FLIP, group_mul(e2, g, h))
            rhs = group_mul(e2, apply_aut(e2, FLIP, g), apply_aut(e2, FLIP, h))
            assert lhs == rhs

    def test_heis_homomorphism_with_beta2(self, heis_r):
        # nonzero beta2 * gamma2 exercises the displayed quadratic terms;
        # the homomorphism identity is the arbiter for the formula
        rng = random.Random(SEED)
        phi = HeisAut(
            alpha=2,
            beta2=Fraction(1, 2),
            gamma1=1,
            gamma2=3,
            delta12=Fraction(2, 3),
            delta22=1,
            phi01=(1,),
            eta=(Fraction(1, 2),),
            rho=(-1,),
            phi11=((2,),),
        )
        assert validate_aut(heis_r, phi) == ()
        for _ in range(50):
            coords = [rand_fraction(rng) for _ in range(8)]
            g = group_element(heis_r, coords[:3], coords[3])
            h = group_element(heis_r, coords[4:7], coords[7])
            lhs = apply_aut(heis_r, phi, group_mul(heis_r, g, h))
            rhs = group_mul(
                heis_r, apply_aut(heis_r, phi, g), apply_aut(heis_r, phi, h)
            )
            assert lhs == rhs

    def test_numeric_matches_exact(self, heis_r):
        phi = HeisAut(alpha=1, beta2=1, delta22=1, phi01=(1,), eta=(2,), rho=(0,), phi11=((1,),))
        g = group_element(heis_r, (1, Fraction(1, 2), -2), 3)
        exact = apply_aut(heis_r, phi, g)
        v, t = apply_aut_numeric(heis_r, phi, np.array([1.0, 0.5, -2.0]), 3.0)
        assert np.abs(v - np.array([float(c) for c in exact.v])).max() < 1e-12
        assert abs(t - float(exact.t)) < 1e-12

    def test_generic_numeric_action(self, e2):
        v, t = apply_aut_numeric(e2, FLIP, np.array([1.0, 2.0]), 0.7)
        assert np.allclose(v, [1.0, -2.0])
        assert t == pytest.approx(-0.7)


class TestInner:
    def test_central_elements_act_trivially(self, heis, e2):
        rng = random.Random(SEED)
        central_heis = inner_aut(heis, group_element(heis, (5, 0), 0))
        central_e2 = inner_aut(e2, group_element(e2, (0, 0), TAU * 2))
        for _ in range(20):
            g = group_element(
                heis, (rand_fraction(rng), rand_fraction(rng)), rand_fraction(rng)
            )
            assert apply_aut(heis, central_heis, g) == g
            h = group_element(
                e2, (rand_fraction(rng), rand_fraction(rng)), TAU * rng.randint(-2, 2)
            )
            assert apply_aut(e2, central_e2, h) == h

    def test_time_translation_shears(self, heis):
        # conjugation by [0, s] multiplies the vector part by I + sJ
        inn = inner_aut(heis, group_element(heis, (0, 0), 5))
        got = apply_aut(heis, inn, group_element(heis, (3, 4), 7))
        assert got == group_element(heis, (23, 4), 7)

    def test_identity_element_fixed(self, heis):
        inn = inner_aut(heis, group_element(heis, (2, 3), 4))
        ident = group_element(heis, (0, 0), 0)
        assert apply_aut(heis, inn, ident) == ident

    def test_matches_conjugation(self, heis):
        rng = random.Random(SEED)
        for _ in range(25):
            g = group_element(
                heis, (rand_fraction(rng), rand_fraction(rng)), rand_fraction(rng)
            )
            h = group_element(
                heis, (rand_fraction(rng), rand_fraction(rng)), rand_fraction(rng)
            )
            direct = group_mul(
                heis, group_mul(heis, g, h), group_inverse(heis, g)
            )
            assert apply_aut(heis, inner_aut(heis, g), h) == direct

    def test_as_generic_on_nilpotent(self, heis):
        inn = inner_aut(heis, group_element(heis, (1, 2), 3))
        generic = inner_as_generic(heis, inn)
        assert validate_aut(heis, generic) == ()
        assert generic.delta == ((ONE, TauScalar(3)), (ZERO, ONE))
        assert generic.gamma == (TauScalar(-2), ZERO)


class TestComposeInvert:
    def test_invert_identity(self, e2):
        assert invert(identity_aut(e2)) == identity_aut(e2)

    def test_flip_is_involution(self, e2):
        assert compose(FLIP, FLIP) == identity_aut(e2)
        assert invert(FLIP) == FLIP

    def test_generic_composition_action(self, heis):
        rng = random.Random(SEED)
        phi1 = GenericAut(((6, 1), (0, 2)), (1, -1), 3)
        phi2 = GenericAut(((1, 2), (0, 2)), (0, Fraction(1, 2)), Fraction(1, 2))
        both = compose(phi1, phi2)
        for _ in range(25):
            g = group_element(
                heis, (rand_fraction(rng), rand_fraction(rng)), rand_fraction(rng)
            )
            assert apply_aut(heis, both, g) == apply_aut(
                heis, phi1, apply_aut(heis, phi2, g)
            )

    def test_generic_inverse_action(self, heis):
        rng = random.Random(SEED)
        phi = GenericAut(((6, 1), (0, 2)), (1, -1), 3)
        phi_inv = invert(phi)
        for _ in range(25):
            g = group_element(
                heis, (rand_fraction(rng), rand_fraction(rng)), rand_fraction(rng)
            )
            assert apply_aut(heis, phi_inv, apply_aut(heis, phi, g)) == g

    def test_heis_composition_action(self, heis_r):
        rng = random.Random(SEED)
        phi1 = HeisAut(
            alpha=2, beta2=1, gamma2=Fraction(1, 2), delta22=1,
            phi01=(1,), eta=(0,), rho=(1,), phi11=((3,),),
        )
        phi2 = HeisAut(
            alpha=1, beta2=Fraction(-1, 2), gamma1=2, delta12=1, delta22=2,
            phi01=(0,), eta=(1,), rho=(0,), phi11=((1,),),
        )
        both = compose(phi1, phi2)
        assert validate_aut(heis_r, both) == ()
        for _ in range(25):
            coords = [rand_fraction(rng) for _ in range(4)]
            g = group_element(heis_r, coords[:3], coords[3])
            assert apply_aut(heis_r, both, g) == apply_aut(
                heis_r, phi1, apply_aut(heis_r, phi2, g)
            )

    def test_heis_inverse_round_trip(self, heis_r):
        phi = HeisAut(
            alpha=2, beta2=1, gamma2=Fraction(1, 2), delta22=1,
            phi01=(1,), eta=(0,), rho=(1,), phi11=((3,),),
        )
        g = group_element(heis_r, (1, Fraction(2, 3), -1), Fraction(3, 4))
        assert apply_aut(heis_r, invert(phi), apply_aut(heis_r, phi, g)) == g

    def test_mixed_composition_embeds(self, heis):
        generic = GenericAut(((6, 1), (0, 2)), (1, -1), 3)
        heis_phi = HeisAut(alpha=1, beta2=1, delta22=1)
        both = compose(generic, heis_phi)
        assert validate_aut(heis, both) == ()
        g = group_element(heis, (1, 2), 3)
        assert apply_aut(heis, both, g) == apply_aut(
            heis, generic, apply_aut(heis, heis_phi, g)
        )

    def test_irrational_alpha_composite(self, heis):
        # the time row (0, tau, 1) of the first differential meets the last
        # column (0, 1, 1) of the second in the corner alpha = 1 + tau
        heis_phi = HeisAut(alpha=1, beta2=TAU, delta22=1)
        shift = GenericAut(((1, 0), (0, 1)), (0, 1), 1)
        both = compose(heis_phi, shift)
        assert both.alpha == 1 + TAU
        assert validate_aut(heis, both) == ()
        g = group_element(heis, (1, 2), Fraction(1, 3))
        assert apply_aut(heis, both, g) == apply_aut(
            heis, heis_phi, apply_aut(heis, shift, g)
        )

    def test_irrational_alpha_inverse(self, heis):
        phi = HeisAut(alpha=1, beta2=TAU, gamma2=1, delta22=1)
        back = invert(phi)
        assert back.alpha == 1 / (1 - TAU)
        g = group_element(heis, (1, 2), Fraction(1, 3))
        assert apply_aut(heis, back, apply_aut(heis, phi, g)) == g
        assert apply_aut(heis, phi, apply_aut(heis, back, g)) == g

    def test_inner_composition_functorial(self, heis):
        g1 = group_element(heis, (1, 2), 3)
        g2 = group_element(heis, (-1, Fraction(1, 2)), 1)
        composed = compose(inner_aut(heis, g1), inner_aut(heis, g2))
        assert isinstance(composed, InnerAut)
        expected = inner_aut(heis, group_mul(heis, g1, g2))
        rng = random.Random(SEED)
        for _ in range(10):
            h = group_element(
                heis, (rand_fraction(rng), rand_fraction(rng)), rand_fraction(rng)
            )
            assert apply_aut(heis, composed, h) == apply_aut(heis, expected, h)


HEIS_EXTENSIONS = [
    multiplicity_function({(GaussRational(0), 2): 1, **({(GaussRational(0), 1): k} if k else {})})
    for k in range(3)
]
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero = small.filter(bool)


@st.composite
def generic_on_heis(draw):
    """heis x R^k for k <= 2, a valid generic datum on it and an element.

    Delta J = alpha J Delta holds exactly for Delta = [[alpha*a22, *],
    [0, a22, 0], [0, *, P]] in coordinates (x, y, w...); Delta is
    invertible iff a22 and P are.
    """
    aleph = draw(st.sampled_from(HEIS_EXTENSIONS))
    k = aleph.dim - 2
    alpha, a22 = draw(nonzero), draw(nonzero)
    p11 = mat([[draw(small) for _ in range(k)] for _ in range(k)])
    assume(is_invertible(p11))
    delta = (
        (alpha * a22, *(draw(small) for _ in range(k + 1))),
        (0, a22, *(0,) * k),
        *((0, draw(small), *row) for row in p11),
    )
    gamma = [draw(small) for _ in range(k + 2)]
    g = group_element(aleph, [draw(small) for _ in range(k + 2)], draw(small))
    return aleph, GenericAut(delta, gamma, alpha), g


class TestEmbedding:
    """On a Heisenberg extension the group applies the ten-parameter
    polynomial to every datum.  The generic integral it replaced there,
    Delta v + t phi(alpha t J) gamma, is the reference."""

    @given(generic_on_heis())
    @settings(max_examples=60)
    def test_beta2_zero_recovers_generic_action(self, case):
        aleph, phi, g = case
        jmat = build_jordan(aleph)
        alpha_j_delta = tuple(tuple(phi.alpha * e for e in row) for row in mat_mul(jmat, phi.delta))
        assert mat_mul(phi.delta, jmat) == alpha_j_delta
        assert validate_aut(aleph, phi) == ()
        s = phi.alpha * g.t
        integral = apply_exp_integral(aleph, s, phi.gamma)
        v = tuple(a + b / phi.alpha for a, b in zip(mat_vec(phi.delta, g.v), integral))
        assert apply_aut(aleph, phi, g) == group_element(aleph, v, s)
        fv, ft = apply_aut(aleph, phi, g, mode="numeric")
        want = np.array([float(c) for c in v + (s,)])
        got = np.append(fv, ft)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_bad_pattern_rejected(self, heis):
        # compose multiplies differentials and keeps whatever comes out;
        # the group rejects an off-pattern product when it is asked to act
        skew = compose(HeisAut(alpha=1), GenericAut(((1, 0), (1, 1)), (0, 0), 1))
        message = "not the differential of a ten-parameter datum"
        assert validate_aut(heis, skew) == (message,)
        for mode in ("exact", "numeric"):
            with pytest.raises(InvalidAutomorphism, match=message):
                apply_aut(heis, skew, group_element(heis, (1, 2), 3), mode=mode)


class TestDifferential:
    def test_identity(self, mix):
        assert differential(mix, identity_aut(mix)) == identity(mix.dim + 1)

    def test_flip_frozen(self, e2):
        assert differential(e2, FLIP) == (
            (ONE, ZERO, ZERO),
            (ZERO, -ONE, ZERO),
            (ZERO, ZERO, -ONE),
        )

    def test_heis_assembly(self, heis):
        phi = HeisAut(alpha=1, beta2=1, delta22=1)
        assert differential(heis, phi) == (
            (ONE, ZERO, ZERO),
            (ZERO, ONE, ZERO),
            (ZERO, ONE, ONE),
        )

    def test_product_rule(self, heis_r):
        phi1 = HeisAut(
            alpha=2, beta2=1, gamma2=Fraction(1, 2), delta22=1,
            phi01=(1,), eta=(0,), rho=(1,), phi11=((3,),),
        )
        phi2 = HeisAut(
            alpha=1, beta2=Fraction(-1, 2), gamma1=2, delta12=1, delta22=2,
            phi01=(0,), eta=(1,), rho=(0,), phi11=((1,),),
        )
        lhs = differential(heis_r, compose(phi1, phi2))
        rhs = mat_mul(differential(heis_r, phi1), differential(heis_r, phi2))
        assert lhs == rhs

    def test_preserves_brackets(self, heis_r):
        # the assembled differential is an algebra automorphism even for
        # nonzero beta2
        phi = HeisAut(
            alpha=2, beta2=1, gamma1=1, gamma2=3, delta12=1, delta22=1,
            phi01=(1,), eta=(2,), rho=(0,), phi11=((1,),),
        )
        d = differential(heis_r, phi)
        dim = heis_r.dim

        def push(x):
            image = mat_vec(d, vec(tuple(x.v) + (x.t,)))
            return algebra_element(heis_r, image[:dim], image[dim])

        basis = [
            algebra_element(
                heis_r, tuple(1 if i == j else 0 for j in range(dim)), 0
            )
            for i in range(dim)
        ] + [algebra_element(heis_r, (0,) * dim, 1)]
        for x in basis:
            for y in basis:
                want = push(commutator(heis_r, x, y))
                got = commutator(heis_r, push(x), push(y))
                assert got == want

    def test_finite_difference(self, heis_r):
        phi = HeisAut(
            alpha=2, beta2=1, gamma1=1, gamma2=3, delta12=1, delta22=1,
            phi01=(1,), eta=(2,), rho=(0,), phi11=((1,),),
        )
        d = np.array(
            [[float(c) for c in row] for row in differential(heis_r, phi)]
        )
        eps = 1e-7
        n = heis_r.dim + 1
        fd = np.zeros((n, n))
        for j in range(n):
            plus = np.zeros(n)
            plus[j] = eps
            v_p, t_p = apply_aut_numeric(heis_r, phi, plus[:-1], plus[-1])
            v_m, t_m = apply_aut_numeric(heis_r, phi, -plus[:-1], -plus[-1])
            fd[:, j] = (np.concatenate([v_p, [t_p]]) - np.concatenate([v_m, [t_m]])) / (
                2 * eps
            )
        assert np.abs(fd - d).max() < 1e-6


class TestPreservesLattice:
    def subgroup(self, aleph, *gens):
        return subgroup_from_data(aleph, gens)

    def test_inner_acts_trivially(self, e2):
        n = self.subgroup(e2, ((0, 0), TAU))
        inn = inner_aut(e2, group_element(e2, (1, 2), Fraction(1, 3)))
        assert preserves_lattice(e2, inn, n) == ((1,),)

    def test_flip_inverts_generator(self, e2):
        n = self.subgroup(e2, ((0, 0), TAU))
        assert preserves_lattice(e2, FLIP, n) == ((-1,),)

    def test_translated_image_leaves_lattice(self, e2_r2):
        n = self.subgroup(e2_r2, ((0, 0, 1, 0), TAU))
        phi = GenericAut(identity(4), (0, 0, Fraction(1, 2), 0), 1)
        assert validate_aut(e2_r2, phi) == ()
        assert preserves_lattice(e2_r2, phi, n) is None

    def test_kernel_scaling_not_unimodular(self, e2_r2):
        n = self.subgroup(e2_r2, ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0))
        phi = GenericAut(
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1)),
            (0, 0, 0, 0),
            1,
        )
        assert validate_aut(e2_r2, phi) == ()
        assert preserves_lattice(e2_r2, phi, n) is None

    def test_kernel_shear_certificate(self, e2_r2):
        n = self.subgroup(e2_r2, ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0))
        phi = GenericAut(
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1)),
            (0, 0, 0, 0),
            1,
        )
        a = preserves_lattice(e2_r2, phi, n)
        assert a is not None
        # re-expansion through A reproduces the generator images exactly
        gens = list(n.generators)
        for j, g in enumerate(gens):
            image = apply_aut(e2_r2, phi, g)
            rebuilt_v = [ZERO] * 4
            rebuilt_t = ZERO
            for i, h in enumerate(gens):
                for c in range(4):
                    rebuilt_v[c] = rebuilt_v[c] + a[i][j] * h.v[c]
                rebuilt_t = rebuilt_t + a[i][j] * h.t
            assert tuple(rebuilt_v) == image.v
            assert rebuilt_t == image.t

    def test_empty_lattice(self, e2):
        n = self.subgroup(e2)
        assert preserves_lattice(e2, FLIP, n) == ()
