"""Algebraic laws of the group law, the representations and the automorphism
families.

Derandomized properties over a small catalog of groups.  Times stay in
the exact domain: small rationals on nilpotent data, and multiples of a
time at which every rotation block makes a quarter turn otherwise.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from almostabelian.autos import (
    GenericAut,
    HeisAut,
    apply_aut,
    compose,
    differential,
    identity_aut,
    inner_aut,
    invert,
    is_heisenberg_extension,
    validate_aut,
)
from almostabelian.expmap import (
    DilationGroup,
    dilation_conjugator,
    dilation_group,
    exp_map,
    group_inverse,
    group_mul,
    phi_matrix,
)
from almostabelian.jordan import (
    algebra_element,
    build_jordan,
    group_element,
    group_identity,
    multiplicity_function,
)
from almostabelian.linalg import (
    identity,
    inverse,
    is_invertible,
    mat,
    mat_mul,
    mat_vec,
    solve,
)
from almostabelian.reps import group_rep_G, group_rep_GI, group_rep_GII
from almostabelian.scalars import TAU
from almostabelian.scalars import GaussRational as G

# name -> (datum, time unit); a unit of None means any small rational time
CATALOG = {
    "heis": ({(G(0), 2): 1}, None),
    "heis_r": ({(G(0), 2): 1, (G(0), 1): 1}, None),
    "heis_r2": ({(G(0), 2): 1, (G(0), 1): 2}, None),
    "nil3_r": ({(G(0), 3): 1, (G(0), 1): 1}, None),
    "e2": ({(G(0, 1), 1): 1}, TAU / 4),
    "mix": ({(G(0, Fraction(2, 3)), 1): 1, (G(0, 1), 1): 1}, 3 * TAU / 4),
    "e2_r2": ({(G(0, 1), 1): 1, (G(0), 1): 2}, TAU / 4),
}
GROUPS = {
    name: (multiplicity_function(data), unit) for name, (data, unit) in CATALOG.items()
}
NILPOTENT = [name for name, (_, unit) in CATALOG.items() if unit is None]
ROTATION = [name for name in CATALOG if name not in NILPOTENT]
HEIS = [name for name, (aleph, _) in GROUPS.items() if is_heisenberg_extension(aleph)]

small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
nonzero = small.filter(bool)
tau_linear = st.tuples(small, small).map(lambda ab: ab[0] + ab[1] * TAU)


def vectors(n):
    return st.lists(small, min_size=n, max_size=n)


@st.composite
def _elements(draw, aleph, unit):
    t = draw(small) if unit is None else draw(st.integers(-3, 3)) * unit
    return group_element(aleph, draw(vectors(aleph.dim)), t)


@st.composite
def _generic_auts(draw, aleph):
    # Delta = D_alpha p(J): p(J) commutes with J, and D_alpha J = alpha J D_alpha
    dil = dilation_group(aleph)
    if dil is DilationGroup.ALL_NONZERO:
        alpha = draw(nonzero)
    elif dil is DilationGroup.PLUS_MINUS_ONE:
        alpha = draw(st.sampled_from([1, -1]))
    else:
        alpha = 1
    jmat = build_jordan(aleph).matrix
    c0 = draw(nonzero)
    poly = tuple(tuple(c0 * x for x in row) for row in identity(aleph.dim))
    power = jmat
    for _ in range(2):
        c = draw(small)
        poly = tuple(
            tuple(x + c * y for x, y in zip(prow, qrow)) for prow, qrow in zip(poly, power)
        )
        power = mat_mul(power, jmat)
    delta = mat_mul(dilation_conjugator(aleph, alpha), poly)
    assume(is_invertible(delta))
    return GenericAut(delta, draw(vectors(aleph.dim)), alpha)


@st.composite
def _heis_auts(draw, aleph):
    n = aleph.dim - 2
    phi11 = mat(draw(st.lists(vectors(n), min_size=n, max_size=n)))
    assume(is_invertible(phi11))
    phi = HeisAut(
        alpha=draw(nonzero),
        beta2=draw(tau_linear),
        gamma1=draw(tau_linear),
        gamma2=draw(tau_linear),
        delta12=draw(tau_linear),
        delta22=draw(small),
        phi01=draw(vectors(n)),
        eta=draw(vectors(n)),
        rho=draw(vectors(n)),
        phi11=phi11,
    )
    assume(not phi.invariant.is_zero)
    return phi


# one strategy per group and kind, built once: hypothesis pays for every
# new strategy object it sees
@functools.cache
def elements(name):
    return _elements(*GROUPS[name])


@functools.cache
def auts(kind, name):
    aleph, _ = GROUPS[name]
    if kind == "generic":
        return _generic_auts(aleph)
    if kind == "heis":
        return _heis_auts(aleph)
    return elements(name).map(lambda k: inner_aut(aleph, k))


def draw_group(data, names):
    """A group name from the catalog, with its datum."""
    name = data.draw(st.sampled_from(sorted(names)))
    return name, GROUPS[name][0]


def group_for(data, *kinds):
    return draw_group(data, HEIS if "heis" in kinds else GROUPS)


KINDS = ["generic", "heis", "inner"]
PAIRS = [(a, b) for a in KINDS for b in KINDS]


# ---------------------------------------------------------------------------
# the group law


@given(st.data())
@settings(max_examples=30)
def test_group_axioms(data):
    name, aleph = draw_group(data, GROUPS)
    g, h, k = (data.draw(elements(name)) for _ in range(3))
    e = group_identity(aleph)
    assert group_mul(aleph, group_mul(aleph, g, h), k) == group_mul(
        aleph, g, group_mul(aleph, h, k)
    )
    assert group_mul(aleph, g, e) == g == group_mul(aleph, e, g)
    assert group_mul(aleph, g, group_inverse(aleph, g)) == e


@given(st.data())
@settings(max_examples=30)
def test_one_parameter_subgroups(data):
    # exp(sX) exp(tX) = exp((s+t)X), with X's time the catalog's unit on
    # rotation data and integer s, t
    name, aleph = draw_group(data, GROUPS)
    unit = GROUPS[name][1] or data.draw(nonzero)
    v = data.draw(vectors(aleph.dim))
    s, t = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))

    def exp(c):
        return exp_map(aleph, algebra_element(aleph, [c * x for x in v], c * unit))

    assert group_mul(aleph, exp(s), exp(t)) == exp(s + t)


@given(st.data())
@settings(max_examples=10)
def test_quarter_turn_conjugation(data):
    # on a size-1 rotation block with eigenvalue ib, e^{sJ} at s = tau/(4b)
    # is the quarter turn J/b: conjugating [v, 0] by [0, s] gives [Jv/b, 0]
    name, aleph = draw_group(data, ROTATION)
    block = data.draw(
        st.sampled_from([k for k in aleph.blocks if k.realified and k.size == 1])
    )
    b = block.eigenvalue.im
    v = [0] * aleph.dim
    v[block.offset : block.offset + 2] = data.draw(vectors(2))
    g = group_element(aleph, [0] * aleph.dim, TAU / (4 * b))
    h = group_element(aleph, v, 0)
    conjugate = group_mul(aleph, group_mul(aleph, g, h), group_inverse(aleph, g))
    jv = mat_vec(build_jordan(aleph).matrix, v)
    assert conjugate == group_element(aleph, [x / b for x in jv], 0)


# ---------------------------------------------------------------------------
# representations

REPS = {"G": group_rep_G, "GI": group_rep_GI, "GII": group_rep_GII}


@pytest.mark.parametrize("kind", sorted(REPS))
@given(data=st.data())
@settings(max_examples=10)
def test_representations_are_homomorphisms(kind, data):
    # RepMatrix.mul multiplies exact matrices only, and GI's corner e^t is
    # exact only at t = 0, so GI is checked on time-zero elements
    name, aleph = draw_group(data, GROUPS)
    g, h = data.draw(elements(name)), data.draw(elements(name))
    if kind == "GI":
        g, h = (group_element(aleph, x.v, 0) for x in (g, h))
    rep = REPS[kind]
    assert rep(aleph, g).mul(rep(aleph, h)) == rep(aleph, group_mul(aleph, g, h))


# ---------------------------------------------------------------------------
# automorphisms


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=12)
def test_action_is_a_homomorphism(kind, data):
    name, aleph = group_for(data, kind)
    phi = data.draw(auts(kind, name))
    assert validate_aut(aleph, phi) == ()
    g, h = data.draw(elements(name)), data.draw(elements(name))
    assert apply_aut(aleph, phi, group_mul(aleph, g, h)) == group_mul(
        aleph, apply_aut(aleph, phi, g), apply_aut(aleph, phi, h)
    )


@pytest.mark.parametrize("kinds", PAIRS)
@given(data=st.data())
@settings(max_examples=6)
def test_compose(kinds, data):
    # acts as the composite, and differential is a functor
    name, aleph = group_for(data, *kinds)
    p, q = (data.draw(auts(kind, name)) for kind in kinds)
    g = data.draw(elements(name))
    both = compose(p, q)
    assert apply_aut(aleph, both, g) == apply_aut(aleph, p, apply_aut(aleph, q, g))
    assert differential(aleph, both) == mat_mul(
        differential(aleph, p), differential(aleph, q)
    )


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=12)
def test_invert(kind, data):
    name, aleph = group_for(data, kind)
    phi = data.draw(auts(kind, name))
    g = data.draw(elements(name))
    back = invert(phi)
    assert apply_aut(aleph, back, apply_aut(aleph, phi, g)) == g
    assert apply_aut(aleph, phi, apply_aut(aleph, back, g)) == g
    assert differential(aleph, back) == inverse(differential(aleph, phi))
    assert differential(aleph, identity_aut(aleph)) == identity(aleph.dim + 1)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=15)
def test_action_is_exp_of_differential(kind, data):
    # on nilpotent data exp is a bijection, and phi(exp X) = exp(dphi X):
    # log g = (phi(tJ)^{-1} v, t) by the exponential's closed form
    name, aleph = draw_group(data, HEIS if kind == "heis" else NILPOTENT)
    phi = data.draw(auts(kind, name))
    g = data.draw(elements(name))
    log_v = solve(phi_matrix(g.t, aleph), g.v)
    image = mat_vec(differential(aleph, phi), tuple(log_v) + (g.t,))
    expected = exp_map(aleph, algebra_element(aleph, image[:-1], image[-1]))
    assert apply_aut(aleph, phi, g) == expected
