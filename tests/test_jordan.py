"""Jordan datum, canonical block layout, commutator, and the group law."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostabelian.autos import apply_aut, identity_aut
from almostabelian.errors import DegenerateDatum, ExactnessUnavailable
from almostabelian.expmap import block_exp, exp_map, group_inverse, group_mul, phi_matrix
from almostabelian.jordan import (
    AlgebraElement,
    algebra_element,
    build_jordan,
    commutator,
    derived_algebra_basis,
    group_element,
    group_identity,
    in_kernel,
    kernel_basis,
    multiplicity_function,
)
from almostabelian.linalg import in_span, mat, vec, vec_is_zero
from almostabelian.scalars import TAU, GaussRational, TauScalar, as_tau
from almostabelian.subgroups import ConnectedSubgroupSpec, membership

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestMultiplicityFunction:
    def test_rejects_abelian(self):
        with pytest.raises(DegenerateDatum):
            multiplicity_function({(GaussRational(0), 1): 3})
        with pytest.raises(DegenerateDatum):
            multiplicity_function({})

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            multiplicity_function({(GaussRational(1), 0): 1})
        with pytest.raises(ValueError):
            multiplicity_function({(GaussRational(1), 1): 0})

    def test_conjugate_normalization(self):
        lower = multiplicity_function({(GaussRational(1, -2), 1): 1})
        upper = multiplicity_function({(GaussRational(1, 2), 1): 1})
        assert lower == upper

    def test_merges_duplicates(self):
        a = multiplicity_function(
            {(GaussRational(0, 1), 1): 1, (GaussRational(0, -1), 1): 2}
        )
        assert a.multiplicity(GaussRational(0, 1), 1) == 3

    def test_dimension(self, heis, e2, mix, e2_r2):
        assert heis.dim == 2
        assert e2.dim == 2
        assert mix.dim == 4
        assert e2_r2.dim == 4

    def test_canonical_order_sizes_descend(self, heis_r):
        sizes = [b.size for b in heis_r.blocks]
        assert sizes == sorted(sizes, reverse=True)

    def test_canonical_order_zero_blocks_last(self, e2_r2):
        assert [b.eigenvalue.is_zero for b in e2_r2.blocks] == [False, True, True]
        assert e2_r2.kernel_coordinates == (2, 3)

    def test_canonical_order_slow_rotation_first(self, mix):
        assert mix.blocks[0].eigenvalue == GaussRational(0, Fraction(2, 3))

    def test_kernel_dimension_formula(self, heis_r):
        q = sum(mult for eig, _, mult in heis_r.entries if eig.is_zero)
        assert len(heis_r.kernel_coordinates) == q


class TestJordanMatrix:
    def test_heis(self, heis):
        assert build_jordan(heis).matrix == mat([[0, 1], [0, 0]])

    def test_aff(self, aff):
        assert build_jordan(aff).matrix == mat([[1]])

    def test_e2(self, e2):
        assert build_jordan(e2).matrix == mat([[0, -1], [1, 0]])

    def test_realified_jordan_block_of_size_two(self):
        a = multiplicity_function({(GaussRational(1, 2), 2): 1})
        expected = mat(
            [
                [1, -2, 1, 0],
                [2, 1, 0, 1],
                [0, 0, 1, -2],
                [0, 0, 2, 1],
            ]
        )
        assert build_jordan(a).matrix == expected

    def test_kernel_membership(self, heis_r):
        assert in_kernel(heis_r, vec([1, 0, 5]))
        assert not in_kernel(heis_r, vec([0, 1, 0]))
        assert len(kernel_basis(heis_r)) == 2


class TestCommutator:
    def test_heis(self, heis):
        x = algebra_element(heis, [0, 1], 0)
        y = algebra_element(heis, [0, 0], 1)
        got = commutator(heis, x, y)
        assert got.v == vec([-1, 0])
        assert got.t.is_zero

    def test_e2(self, e2):
        x = algebra_element(e2, [1, 0], 0)
        y = algebra_element(e2, [0, 0], 1)
        assert commutator(e2, x, y).v == vec([0, -1])

    def test_antisymmetry_with_self(self, mix):
        x = algebra_element(mix, [1, 2, 3, 4], 5)
        assert vec_is_zero(commutator(mix, x, x).v)

    @given(
        st.lists(rationals, min_size=4, max_size=4),
        rationals,
        st.lists(rationals, min_size=4, max_size=4),
        rationals,
        st.lists(rationals, min_size=4, max_size=4),
        rationals,
    )
    @settings(max_examples=30)
    def test_jacobi(self, va, ta, vb, tb, vc, tc):
        aleph = multiplicity_function(
            {(GaussRational(0, Fraction(2, 3)), 1): 1, (GaussRational(0, 1), 1): 1}
        )
        x = algebra_element(aleph, va, ta)
        y = algebra_element(aleph, vb, tb)
        z = algebra_element(aleph, vc, tc)

        def bracket(p, q):
            return commutator(aleph, p, q)

        total = [
            a + b + c
            for a, b, c in zip(
                bracket(x, bracket(y, z)).v,
                bracket(y, bracket(z, x)).v,
                bracket(z, bracket(x, y)).v,
            )
        ]
        assert vec_is_zero(vec(total))

    @given(
        st.lists(rationals, min_size=3, max_size=3),
        rationals,
        st.lists(rationals, min_size=3, max_size=3),
        rationals,
    )
    @settings(max_examples=30)
    def test_value_in_derived_algebra(self, va, ta, vb, tb):
        aleph = multiplicity_function(
            {(GaussRational(0), 2): 1, (GaussRational(0), 1): 1}
        )
        got = commutator(
            aleph, algebra_element(aleph, va, ta), algebra_element(aleph, vb, tb)
        )
        assert got.t.is_zero
        basis = derived_algebra_basis(aleph)
        if not vec_is_zero(got.v):
            assert in_span(basis, got.v)


class TestDerivedAlgebra:
    def test_heis(self, heis):
        assert derived_algebra_basis(heis) == (vec([1, 0]),)

    def test_heis_r(self, heis_r):
        assert derived_algebra_basis(heis_r) == (vec([1, 0, 0]),)

    def test_e2(self, e2):
        assert derived_algebra_basis(e2) == (vec([1, 0]), vec([0, 1]))


class TestGroupLaw:
    def test_mul_heis(self, heis):
        g = group_mul(
            heis, group_element(heis, [0, 1], 0), group_element(heis, [0, 0], 1)
        )
        assert g.v == vec([0, 1]) and g.t == as_tau(1)

    def test_identity_laws(self, heis):
        e = group_identity(heis)
        g = group_element(heis, [4, 2], 3)
        assert group_mul(heis, e, g) == g
        assert group_mul(heis, g, e) == g

    def test_mul_e2_torsion(self, e2):
        g = group_mul(e2, group_element(e2, [0, 0], TAU), group_element(e2, [1, 0], 0))
        assert g.v == vec([1, 0]) and g.t == TAU

    def test_inverse_heis(self, heis):
        g = group_element(heis, [4, 2], 3)
        inv = group_inverse(heis, g)
        assert inv.v == vec([2, -2]) and inv.t == as_tau(-3)
        assert group_mul(heis, g, inv) == group_identity(heis)

    def test_inverse_e2_torsion(self, e2):
        g = group_element(e2, [0, 0], TAU)
        assert group_inverse(e2, g) == group_element(e2, [0, 0], -TAU)

    def test_exactness_unavailable_names_block(self, aff):
        g = group_element(aff, [0], 1)
        h = group_element(aff, [1], 0)
        with pytest.raises(ExactnessUnavailable, match=r"\(1, 1\)"):
            group_mul(aff, g, h)

    def test_kernel_vector_moves_exactly(self, aff):
        # v = 0 on the non-nilpotent block: product stays exact at any time
        g = group_element(aff, [1], 1)
        h = group_element(aff, [0], 5)
        assert group_mul(aff, g, h) == group_element(aff, [1], 6)

    @given(
        st.lists(rationals, min_size=3, max_size=3),
        rationals,
        st.lists(rationals, min_size=3, max_size=3),
        rationals,
        st.lists(rationals, min_size=3, max_size=3),
        rationals,
    )
    @settings(max_examples=30)
    def test_associativity_nilpotent(self, va, ta, vb, tb, vc, tc):
        aleph = multiplicity_function(
            {(GaussRational(0), 2): 1, (GaussRational(0), 1): 1}
        )
        g = group_element(aleph, va, ta)
        h = group_element(aleph, vb, tb)
        k = group_element(aleph, vc, tc)
        left = group_mul(aleph, group_mul(aleph, g, h), k)
        right = group_mul(aleph, g, group_mul(aleph, h, k))
        assert left == right

    @given(
        st.lists(rationals, min_size=2, max_size=2),
        st.integers(min_value=-3, max_value=3),
        st.lists(rationals, min_size=2, max_size=2),
        st.integers(min_value=-3, max_value=3),
    )
    @settings(max_examples=30)
    def test_associativity_torsion_times(self, va, ka, vb, kb):
        e2 = multiplicity_function({(GaussRational(0, 1), 1): 1})
        g = group_element(e2, va, TAU * as_tau(ka))
        h = group_element(e2, vb, TAU * as_tau(kb))
        prod = group_mul(e2, g, h)
        assert prod.v == vec([a + b for a, b in zip(g.v, h.v)])
        assert group_mul(e2, prod, group_inverse(e2, h)) == g

    def test_numeric_mode_matches_exact(self, heis):
        g = group_element(heis, [1, 2], Fraction(1, 2))
        h = group_element(heis, [3, 4], 2)
        exact = group_mul(heis, g, h)
        nv, nt = group_mul(heis, g, h, mode="numeric")
        assert np.allclose(nv, [float(x) for x in exact.v], atol=1e-12)
        assert abs(nt - float(exact.t)) < 1e-12


class TestModeArgument:
    # every function taking a mode argument shares one check, so a typo
    # never falls through to exact arithmetic
    CALLS = {
        "block_exp": lambda a, g, mode: block_exp(g.t, a, mode=mode),
        "phi_matrix": lambda a, g, mode: phi_matrix(g.t, a, mode=mode),
        "exp_map": lambda a, g, mode: exp_map(a, AlgebraElement(g.v, g.t), mode=mode),
        "group_mul": lambda a, g, mode: group_mul(a, g, g, mode=mode),
        "group_inverse": lambda a, g, mode: group_inverse(a, g, mode=mode),
        "membership": lambda a, g, mode: membership(
            a, ConnectedSubgroupSpec(a, ((0, 1),), None), g, mode=mode
        ),
        "apply_aut": lambda a, g, mode: apply_aut(a, identity_aut(a), g, mode=mode),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("mode", ["nmeric", "Exact", ""])
    def test_unknown_mode_rejected(self, heis, name, mode):
        g = group_element(heis, (1, 2), 3)
        with pytest.raises(ValueError, match="unknown mode"):
            self.CALLS[name](heis, g, mode)
