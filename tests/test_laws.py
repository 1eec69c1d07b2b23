"""Algebraic laws of the group law, the representations and the automorphism
families.

Derandomized properties over a small catalog of groups.  Times stay in
the exact domain: small rationals on nilpotent data, and multiples of a
time at which every rotation block makes a quarter turn otherwise.  The
dilation conjugator, the generic automorphism action and the lattice
layer are also checked on random multiplicity functions, the action and
the lattice products against oracles that sum cell by cell.
"""

import functools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from almostabelian import subgroups
from almostabelian.autos import (
    GenericAut,
    HeisAut,
    apply_aut,
    central_action,
    compose,
    differential,
    identity_aut,
    inner_aut,
    invert,
    is_heisenberg_extension,
    validate_aut,
)
from almostabelian.errors import ExactnessUnavailable, NoWitness
from almostabelian.expmap import (
    DilationGroup,
    apply_exp_integral,
    apply_exp_tj,
    apply_phi_tj,
    block_exp,
    dilation_conjugator,
    dilation_contains,
    dilation_group,
    e2_witness,
    exp_map,
    group_inverse,
    group_mul,
    is_central,
    is_exponential,
    phi_matrix,
    torsion,
)
from almostabelian.integers import is_unimodular, kernel_complement_split
from almostabelian.jordan import (
    algebra_element,
    build_jordan,
    derived_algebra_basis,
    group_element,
    group_identity,
    multiplicity_function,
)
from almostabelian.lattices import (
    DiscreteCentralSubgroup,
    aut_image,
    has_faithful_quotient_rep,
    integer_coordinates,
    lattice_equal,
    normalize_subgroup,
    preserves_lattice,
    reduce_generators,
    subgroup_from_data,
    validate_subgroup,
)
from almostabelian.linalg import (
    identity,
    inverse,
    is_invertible,
    mat,
    mat_mul,
    mat_vec,
    rank,
    row_space_basis,
    solve,
    solve_columns,
    transpose,
    vec_is_zero,
)
from almostabelian.numeric import phi_numeric
from almostabelian.oracle import dense_expm
from almostabelian.reps import group_rep_G, group_rep_GI, group_rep_GII
from almostabelian.scalars import TAU, TauScalar, parse_tau
from almostabelian.scalars import GaussRational as G
from almostabelian.subgroups import ConnectedSubgroupSpec, split_lattice_through

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
    jmat = build_jordan(aleph)
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
    # the corner holds the invariant alpha*delta22 - beta2*gamma2
    assume(not phi.matrix[0][0].is_zero)
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


# random data: eigenvalues 0, real, purely imaginary or a +- ib; block sizes
# 1-3 and multiplicities 1-2 within dimension 8; never the all-(0,1) datum
eigen_parts = st.sampled_from([Fraction(k, 2) for k in range(-4, 5) if k])
eigenvalues = st.one_of(
    st.just(G(0)),
    eigen_parts.map(G),
    eigen_parts.map(lambda b: G(0, abs(b))),
    st.tuples(eigen_parts, eigen_parts).map(lambda ab: G(ab[0], abs(ab[1]))),
)


@st.composite
def multiplicity_functions(draw, eigs=eigenvalues, sizes=st.integers(1, 3)):
    """Half of the draws mirror every eigenvalue a + ib to -a + ib, so
    that -1 is a dilation of non-nilpotent data too."""
    mirrored = draw(st.booleans())
    table, dim = {}, 0
    for _ in range(draw(st.integers(1, 3))):
        eig, size, mult = draw(eigs), draw(sizes), draw(st.integers(1, 2))
        keys = {(eig, size), (G(-eig.re, eig.im), size)} if mirrored else {(eig, size)}
        width = len(keys) * mult * size * (2 if eig.im else 1)
        if dim + width <= 8 and not keys & table.keys():
            table.update(dict.fromkeys(keys, mult))
            dim += width
    assume(table and set(table) != {(G(0), 1)})
    return multiplicity_function(table)


# data with T != 0: blocks of size 1 with eigenvalue 0 or ib, some b != 0
torsion_data = multiplicity_functions(
    st.one_of(st.just(G(0)), eigen_parts.map(lambda b: G(0, abs(b)))), st.just(1)
)
any_data = st.one_of(multiplicity_functions(), torsion_data)


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
    jv = mat_vec(build_jordan(aleph), v)
    assert conjugate == group_element(aleph, [x / b for x in jv], 0)


# ---------------------------------------------------------------------------
# the exponential applied to a vector, against the finite series

QUARTER_TURNS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # (cos, sin) at q quarter turns


def _exact_quarters(aleph, r, c) -> dict:
    """Block offset -> the quarter turns q of the block at t = r + c*tau,
    for the blocks where e^{tJ} is exact: all at t = 0, nilpotent ones at
    any t, rotating ones (eigenvalue ib) where 4*c*b is an integer."""
    out = {}
    for b in aleph.blocks:
        a, im = b.eigenvalue.re, b.eigenvalue.im
        if r == 0 and c == 0 or b.eigenvalue.is_zero:
            out[b.offset] = 0
        elif a == 0 and r == 0 and (4 * c * im).denominator == 1:
            out[b.offset] = int(4 * c * im) % 4
    return out


def _exp_by_series(aleph, t, quarters):
    """e^{tJ} = e^{tS} e^{tN} from build_jordan, J = S + N with N the ones
    between a block's cells: e^{tN} is its finite series, and e^{tS} is
    cos + sin * S/b on a rotating block at q quarter turns and the
    identity on every other block (exact only where the vector vanishes)."""
    d = aleph.dim
    j = build_jordan(aleph)
    n = [[TauScalar(0)] * d for _ in range(d)]
    es = [list(row) for row in identity(d)]
    for b in aleph.blocks:
        m, o = (2 if b.realified else 1), b.offset
        for r in range(o, o + b.width - m):
            n[r][r + m] = j[r][r + m]
        if b.realified and b.offset in quarters:
            cos, sin = QUARTER_TURNS[quarters[b.offset]]
            for r in range(o, o + b.width):
                for k in range(o, o + b.width):
                    es[r][k] = cos * (r == k) + sin * (j[r][k] - n[r][k]) / b.eigenvalue.im
    series, power = identity(d), identity(d)
    for k in range(1, d):
        power = mat_mul(power, mat([[t * x / k for x in row] for row in n]))
        series = mat([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(series, power)])
    return mat_mul(mat(es), series)


# data whose blocks are nilpotent or rotating, of sizes 1-3
rotating_data = multiplicity_functions(
    st.one_of(st.just(G(0)), eigen_parts.map(lambda b: G(0, abs(b))))
)


@st.composite
def sweeps(draw):
    """A group of random data, a time t = r + c*tau, and a vector: t is a
    small rational, tau-linear, 0, or a quarter turn of a rotating block
    (of any size); on half of the draws the vector vanishes on every block
    where e^{tJ} has no closed form."""
    aleph = draw(st.one_of(multiplicity_functions(), rotating_data))
    turns = [b for b in aleph.blocks if b.eigenvalue.re == 0 and b.eigenvalue.im]
    kind = draw(st.sampled_from(["rational", "tau", "zero"] + ["quarter"] * 3 * bool(turns)))
    r, c = draw(small), draw(small)
    if kind == "quarter":
        b = draw(st.sampled_from(turns)).eigenvalue.im
        r, c = 0, Fraction(draw(st.integers(-5, 5))) / (4 * b)
    elif kind != "tau":
        r, c = (0 if kind == "zero" else r), 0
    quarters = _exact_quarters(aleph, r, c)
    v = draw(st.lists(st.one_of(small, tau_linear), min_size=aleph.dim, max_size=aleph.dim))
    if not draw(st.booleans()):
        for b in aleph.blocks:
            if b.offset not in quarters:
                v[b.offset : b.offset + b.width] = [0] * b.width
    return aleph, r + c * TAU, v, quarters


def _check_sweep(aleph, t, v, quarters):
    """e^{tJ} v and phi(tJ) v against the series, tJ phi(tJ) = e^{tJ} - id
    and the integral; outside the exact domain, the error names the first
    block (in block order) where v is nonzero and e^{tJ} is not exact."""
    v = tuple(TauScalar(0) + x for x in v)
    offending = [
        b for b in aleph.blocks
        if b.offset not in quarters and not vec_is_zero(v[b.offset : b.offset + b.width])
    ]
    if offending:
        b = offending[0]
        for apply, what in ((apply_exp_tj, "e^(tJ)"), (apply_phi_tj, "phi(tJ)")):
            with pytest.raises(ExactnessUnavailable) as err:
                apply(aleph, t, v)
            assert str(err.value) == (
                f"no exact closed form for {what} at t = {t} on block "
                f"({b.eigenvalue}, {b.size}) at coordinate {b.offset}; "
                "exact evaluation needs a nilpotent block, a quarter turn, "
                "or a vector vanishing there"
            )
        return
    moved, phi_v = apply_exp_tj(aleph, t, v), apply_phi_tj(aleph, t, v)
    assert moved == mat_vec(_exp_by_series(aleph, t, quarters), v)
    tj = mat([[t * x for x in row] for row in build_jordan(aleph)])
    assert mat_vec(tj, phi_v) == tuple(x - y for x, y in zip(moved, v))
    assert apply_exp_integral(aleph, t, v) == tuple(t * x for x in phi_v)
    # on the nilpotent blocks, whose kernel the relation above leaves free,
    # phi(tJ) is its own finite series sum (tJ)^k / (k+1)!
    nil = {
        i for b in aleph.blocks if b.eigenvalue.is_zero for i in range(b.offset, b.offset + b.width)
    }
    term = tuple(x if i in nil else TauScalar(0) for i, x in enumerate(v))
    series = term
    for k in range(1, aleph.dim + 1):
        term = tuple(x / (k + 1) for x in mat_vec(tj, term))
        series = tuple(x + y for x, y in zip(series, term))
    assert all(phi_v[i] == series[i] for i in nil)


@given(sweeps())
@settings(max_examples=120)
def test_exp_and_phi_of_a_vector_are_the_series(case):
    _check_sweep(*case)


def test_exp_and_phi_on_a_planted_rotating_block():
    # (i, 2) at a quarter turn: phi takes the inverse-free series of tJ
    aleph = multiplicity_function({(G(0, 1), 2): 1})
    _check_sweep(aleph, TAU / 4, [1, Fraction(-1, 2), 2 + TAU, 3], {0: 1})
    _check_sweep(aleph, -3 * TAU / 4, [1, 0, 0, Fraction(1, 3)], {0: 1})


# one planted block of size 1-3: real lambda != 0, a + ib with a != 0, or ib
planted_blocks = st.builds(
    lambda eig, size: multiplicity_function({(eig, size): 1}),
    eigenvalues.filter(lambda eig: not eig.is_zero),
    st.integers(1, 3),
)


@given(st.one_of(multiplicity_functions(), planted_blocks), st.data())
@settings(max_examples=150)
def test_float_phi_is_the_corner_of_an_augmented_exponential(aleph, data):
    # phi(tJ) is the top-right d x d block of exp([[tJ, id], [0, 0]]); |t lambda|
    # for one block's lambda is drawn below, at and above 1/2, where the float
    # phi leaves its convergent series for (e^{tJ_b} - id)(tJ_b)^-1
    lam = data.draw(st.sampled_from(aleph.blocks)).eigenvalue
    scale = data.draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0, 2.5]))
    t = data.draw(st.sampled_from([1, -1])) * scale / (math.hypot(lam.re, lam.im) or 1)
    d = aleph.dim
    augmented = np.zeros((2 * d, 2 * d))
    augmented[:d, :d] = [[t * float(x) for x in row] for row in build_jordan(aleph)]
    augmented[:d, d:] = np.eye(d)
    expected = dense_expm(augmented)[:d, d:]
    got = phi_numeric(aleph, t)
    assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))


DILATIONS = (1, -1, Fraction(5, 7), 2 + TAU)


@given(multiplicity_functions())
@settings(max_examples=60)
def test_dilation_conjugator_twists_j(aleph):
    # Delta J = alpha J Delta for every admissible alpha, Delta invertible
    j = build_jordan(aleph)
    for alpha in DILATIONS:
        if dilation_contains(aleph, alpha):
            delta = dilation_conjugator(aleph, alpha)
            alpha_j = mat([[alpha * x for x in row] for row in j])
            assert mat_mul(delta, j) == mat_mul(alpha_j, delta)
            assert is_invertible(delta)
            assert all(parse_tau(str(x)) == x for row in delta for x in row)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=10)
def test_coordinates_round_trip(kind, data):
    # every coordinate an element operation returns prints as a literal
    # that parses back to it
    name, aleph = group_for(data, kind)
    phi = data.draw(auts(kind, name))
    g, h = data.draw(elements(name)), data.draw(elements(name))
    results = (
        exp_map(aleph, algebra_element(aleph, g.v, g.t)),
        group_mul(aleph, g, h),
        group_inverse(aleph, g),
        apply_aut(aleph, phi, g),
    )
    for r in results:
        assert all(parse_tau(str(x)) == x for x in (*r.v, r.t))


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


def _integrated_action(aleph, phi, g):
    """[Delta v + (1/alpha) ((e^{sJ} - id)/J) gamma, s] at s = alpha t,
    the generic action summed cell by cell: the oracle for apply_aut's
    one product."""
    s = g.t * phi.alpha
    integral = apply_exp_integral(aleph, s, phi.gamma)
    moved = [
        sum((d * x for d, x in zip(row, g.v)), TauScalar(0)) + y / phi.alpha
        for row, y in zip(phi.delta, integral)
    ]
    return group_element(aleph, moved, s)


@st.composite
def exact_actions(draw):
    """A group of random data, a GenericAut (D_alpha, gamma, alpha) with
    the dilation conjugator D_alpha, and an element [v, t] whose image is
    exact: t a small rational or a quarter turn of a rotation block, and
    gamma vanishing on every block where phi(alpha t J) has no closed form."""
    aleph = draw(multiplicity_functions())
    alpha = draw(st.sampled_from([a for a in DILATIONS if dilation_contains(aleph, a)]))
    turns = [b for b in aleph.blocks if b.eigenvalue.re == 0 and b.eigenvalue.im]
    if turns and draw(st.booleans()):
        t = draw(st.integers(-3, 3)) * TAU / (4 * draw(st.sampled_from(turns)).eigenvalue.im)
    else:
        t = draw(small)
    gamma = draw(vectors(aleph.dim))
    for b in aleph.blocks:
        unit = [int(i == b.offset) for i in range(aleph.dim)]
        try:
            apply_phi_tj(aleph, alpha * t, unit)
        except ExactnessUnavailable:
            gamma[b.offset : b.offset + b.width] = [0] * b.width
    phi = GenericAut(dilation_conjugator(aleph, alpha), gamma, alpha)
    return aleph, phi, group_element(aleph, draw(vectors(aleph.dim)), t)


@given(exact_actions())
@settings(max_examples=60)
def test_action_is_the_integrated_formula(case):
    # on a Heisenberg extension apply_aut takes the ten-parameter route,
    # which agrees with the integrated exponential on generic data
    aleph, phi, g = case
    assert validate_aut(aleph, phi) == ()
    assert apply_aut(aleph, phi, g) == _integrated_action(aleph, phi, g)


# ---------------------------------------------------------------------------
# the center


@given(any_data)
@settings(max_examples=40)
def test_torsion_generator_acts_trivially(aleph):
    # T = {t : e^{tJ} = id} = t0 Z, and torsion_data never draws T = 0
    tor = torsion(aleph)
    if not tor.is_trivial:
        assert block_exp(tor.t0, aleph) == identity(aleph.dim)


@given(multiplicity_functions())
@settings(max_examples=40)
def test_e2_witness_exactly_when_not_exponential(aleph):
    # phi(tJ) = (e^{tJ} - id)/(tJ) kills the witness's rotation plane at
    # the collision time, a full turn of its block
    if is_exponential(aleph).exponential:
        with pytest.raises(NoWitness):
            e2_witness(aleph)
    else:
        w = e2_witness(aleph)
        assert vec_is_zero(apply_phi_tj(aleph, w.collision_time, w.collision_vector))


def j_column_basis(aleph):
    """Echelonized basis of im J from J's nonzero columns: the oracle for
    the derived coordinates read off the layout."""
    cols = [c for c in zip(*build_jordan(aleph)) if not vec_is_zero(c)]
    return tuple(row_space_basis(cols))


@given(multiplicity_functions())
@settings(max_examples=60)
def test_derived_coordinates_span_the_image_of_j(aleph):
    assert derived_algebra_basis(aleph) == j_column_basis(aleph)


@given(any_data, st.data())
@settings(max_examples=60)
def test_central_elements_commute(aleph, data):
    # [v, m t0] with v on ker J is central, and commutes with anything:
    # e^{tJ} fixes ker J for every t and is the identity at times in T.
    # Moving it off ker J or off T leaves the center.
    kernel, tor = aleph.kernel_coordinates, torsion(aleph)
    v = [data.draw(small) if i in kernel else 0 for i in range(aleph.dim)]
    t = 0 if tor.is_trivial else data.draw(st.integers(-2, 2)) * tor.t0
    move = data.draw(st.sampled_from(["none", "none", "vector", "time"]))
    if move == "vector":
        v[data.draw(st.sampled_from([i for i in range(aleph.dim) if i not in kernel]))] = 1
    elif move == "time":
        t += data.draw(nonzero)
    g = group_element(aleph, v, t)
    assert is_central(aleph, g) == (move == "none")
    if move == "none":
        for _ in range(2):
            h = group_element(aleph, data.draw(vectors(aleph.dim)), data.draw(tau_linear))
            assert group_mul(aleph, g, h) == group_mul(aleph, h, g)


# ---------------------------------------------------------------------------
# the lattice layer


@st.composite
def central_lattices(draw, groups=any_data):
    """A discrete central subgroup of random data: independent generators
    [v, m*t0] with v supported on ker J and m an integer, so of rank 0 up
    to dim ker J + 1 (dim ker J when the torsion is trivial and t = 0)."""
    aleph = draw(groups)
    kernel, tor = aleph.kernel_coordinates, torsion(aleph)
    top = len(kernel) + (not tor.is_trivial)
    assume(top)  # a group with no central lattice but the trivial one
    gens = []
    for _ in range(draw(st.integers(0, top))):
        v = [0] * aleph.dim
        for i, x in zip(kernel, draw(vectors(len(kernel)))):
            v[i] = x
        gens.append((v, 0 if tor.is_trivial else draw(st.integers(-2, 2)) * tor.t0))
    assume(validate_subgroup(aleph, gens) == ())
    return subgroup_from_data(aleph, gens)


@given(central_lattices())
@settings(max_examples=60)
def test_reduce_generators_is_idempotent(n):
    # only the first time survives: gcd of the multiples, nonnegative
    reduced, a = reduce_generators(n)
    m = n.time_multiples
    assert reduced.time_multiples == tuple(math.gcd(*m) if j == 0 else 0 for j in range(len(m)))
    assert is_unimodular(a)
    assert lattice_equal(reduced, n)
    assert lattice_equal(reduce_generators(reduced)[0], reduced)


def columns(n):
    """The (v; t) generator columns of the lattice, as TauScalars."""
    return tuple((*g.v, g.t) for g in n.generators)


def integer_combination(aleph, gens, coeffs):
    """The central element sum_i c_i g_i, summed cell by cell on (v, t)
    (central generators commute): the oracle for the lattice products."""
    point = [TauScalar(0)] * (aleph.dim + 1)
    for c, g in zip(coeffs, gens):
        point = [x + c * y for x, y in zip(point, (*g.v, g.t))]
    return group_element(aleph, point[:-1], point[-1])


@given(central_lattices())
@settings(max_examples=60)
def test_reduced_generators_are_the_a_combinations(n):
    reduced, a = reduce_generators(n)
    want = tuple(integer_combination(n.aleph, n.generators, col) for col in zip(*a))
    assert reduced.generators == want
    assert columns(reduced) == tuple((*g.v, g.t) for g in want)


@given(central_lattices(), st.data())
@settings(max_examples=60)
def test_split_parts_are_the_basis_combinations(n, data):
    # H from lattice vectors and kernel vectors, so that some lattice points
    # lie in it, with a kernel slope half the time; the split's kernel and
    # complement bases are read where subgroups computes them
    aleph, kernel = n.aleph, n.aleph.kernel_coordinates
    rows = [[*g.v] for g in n.generators] + [
        [data.draw(small) if i in kernel else 0 for i in range(aleph.dim)] for _ in range(2)
    ]
    basis = [w for w in data.draw(st.lists(st.sampled_from(rows), max_size=2)) if any(w)]
    v0 = data.draw(st.sampled_from([None, rows[-1]]))
    spec = ConnectedSubgroupSpec(aleph, basis, v0)
    seen = []

    def spy(*args):
        seen.append(kernel_complement_split(*args))
        return seen[-1]

    with mock.patch.object(subgroups, "kernel_complement_split", spy):
        inside, complement = split_lattice_through(aleph, spec, n)
    complement_cols, kernel_cols = seen[0]
    for part, cols in ((inside, kernel_cols), (complement, complement_cols)):
        assert part.generators == tuple(
            integer_combination(aleph, n.generators, c) for c in cols
        )


def generator_images(phi, n):
    """The images of n's generators under phi, one apply_aut each: the
    oracle for aut_image's one product."""
    return tuple(apply_aut(n.aleph, phi, g) for g in n.generators)


@st.composite
def shear_lattices(draw):
    """A lattice that the shear normalizes: on data with deep kernel
    coordinates (a zero block of size 2 or 3), abelian ones and at times a
    rotation block, generators with independent abelian parts (triangular,
    with unit pivots) and deep parts that may be tau-valued."""
    table = {(G(0), draw(st.integers(2, 3))): 1, (G(0), 1): draw(st.integers(1, 3))}
    if draw(st.booleans()):
        table[(G(0, 1), 1)] = 1
    aleph = multiplicity_function(table)
    abelian = aleph.abelian_coordinates
    gens = []
    for j in range(draw(st.integers(1, len(abelian)))):
        v = [0] * aleph.dim
        for i in aleph.kernel_coordinates:
            v[i] = draw(tau_linear)
        for i, c in enumerate(abelian):
            v[c] = 1 if i == j else 0 if i < j else draw(small)
        gens.append((v, 0))
    return subgroup_from_data(aleph, gens)


@given(st.one_of(central_lattices(), shear_lattices()))
@settings(max_examples=60)
def test_normalize_carries_the_lattice_onto_its_image(n):
    # the images that normalize_subgroup and a representable
    # has_faithful_quotient_rep read off the held matrix are phi of each
    # generator, exactly: of the reduced generators for the torsion
    # splitting, of n's own for the shear on data with deep coordinates
    aleph = n.aleph
    reduced, _ = reduce_generators(n)
    cases = [(normalize_subgroup(n), reduced)]
    decision = has_faithful_quotient_rep(aleph, n)
    if decision.representable:
        deep = set(aleph.kernel_coordinates) - set(aleph.abelian_coordinates)
        cases.append(((decision.phi, decision.image), n if deep else reduced))
    for (phi, image), source in cases:
        assert validate_aut(aleph, phi) == ()
        assert image.generators == generator_images(phi, source)


@st.composite
def lattice_actions(draw):
    """A central lattice and an automorphism that validate_aut accepts:
    generic or inner on random data or on the catalog's rotation groups,
    whose torsion is nontrivial and whose generator times are nonzero
    multiples of t0, or ten-parameter on the catalog's Heisenberg
    extensions.  A fixed share of the draws, one kind in four, is the case
    where M_Z differs from the full differential (off_kernel_actions)."""
    kind = draw(st.sampled_from([*KINDS, "gamma off ker J"]))
    if kind == "gamma off ker J":
        return draw(off_kernel_actions())
    if kind == "heis":
        groups = st.sampled_from([GROUPS[name][0] for name in HEIS])
    else:
        rotation = st.sampled_from([GROUPS[name][0] for name in ROTATION])
        groups = st.one_of(multiplicity_functions(), rotation)
    n = draw(central_lattices(groups))
    aleph = n.aleph
    if kind == "generic":
        phi = draw(_generic_auts(aleph))
    elif kind == "heis":
        phi = draw(_heis_auts(aleph))
    else:
        phi = inner_aut(aleph, group_element(aleph, draw(vectors(aleph.dim)), draw(small)))
    assert validate_aut(aleph, phi) == ()
    return n, phi


@st.composite
def off_kernel_actions(draw):
    """A lattice on a catalog rotation group with a first generator of
    nonzero time, and a generic automorphism whose gamma is nonzero off
    ker J: phi moves that generator by the slope integral of gamma, which
    vanishes off ker J at a time in T, so M_Z drops gamma there."""
    aleph = GROUPS[draw(st.sampled_from(ROTATION))][0]
    kernel, t0 = aleph.kernel_coordinates, torsion(aleph).t0
    first = [draw(small) if i in kernel else 0 for i in range(aleph.dim)]
    second = [draw(small) if i in kernel else 0 for i in range(aleph.dim)]
    gens = [(first, draw(st.sampled_from([1, -1, 2])) * t0)]
    if any(second) and draw(st.booleans()):
        gens.append((second, 0))
    n = subgroup_from_data(aleph, gens)
    phi = draw(_generic_auts(aleph))
    gamma = list(phi.gamma)
    gamma[draw(st.sampled_from([i for i in range(aleph.dim) if i not in kernel]))] = draw(nonzero)
    phi = GenericAut(phi.delta, gamma, phi.alpha)
    assert validate_aut(aleph, phi) == ()
    return n, phi


@given(lattice_actions())
@settings(max_examples=80)
def test_aut_image_is_the_generator_images(case):
    n, phi = case
    image = aut_image(n.aleph, phi, n)
    want = generator_images(phi, n)
    assert image.generators == want
    assert columns(image) == tuple((*g.v, g.t) for g in want)


def test_aut_image_drops_gamma_off_the_kernel():
    # on E(2) x R^2 the slope integral of gamma over a time in T vanishes
    # off ker J, so the image of [e2, tau] keeps no rotation coordinate
    aleph = GROUPS["e2_r2"][0]
    n = subgroup_from_data(aleph, [((0, 0, 1, 0), TAU)])
    phi = GenericAut(identity(4), (1, 0, 1, 0), 1)
    assert validate_aut(aleph, phi) == ()
    want = generator_images(phi, n)
    assert want[0].v == (0, 0, 1 + TAU, 0)
    assert aut_image(aleph, phi, n).generators == want


def scaling(aleph, c):
    """The automorphism c * id: its central action M_Z is c times the
    identity, so its image of a lattice scales the held numerators by c."""
    d = aleph.dim
    return GenericAut([[c * x for x in row] for row in identity(d)], (0,) * d, c)


@given(central_lattices())
@settings(max_examples=60)
def test_a_lattice_is_its_generators_whatever_its_held_form(n):
    # the generators read off the held matrix are the ones it was built
    # from; twice then half of n holds numerators and denominator both
    # doubled, and is still equal to n, with n's hash
    aleph, gens = n.aleph, n.generators
    assert DiscreteCentralSubgroup(aleph, gens).generators == gens
    back = aut_image(aleph, scaling(aleph, Fraction(1, 2)), aut_image(aleph, scaling(aleph, 2), n))
    polys, den = n.cleared
    doubled = tuple(tuple(tuple(2 * c for c in p) for p in col) for col in polys)
    assert back.cleared == (doubled, tuple(2 * c for c in den)) != n.cleared
    assert back == n and hash(back) == hash(n) and back.generators == gens


def tau_path_coordinates(n, cols):
    """Integer coordinates of the columns in n's generators on the TauScalar
    path, solve_columns over n's columns and an is_integer check: the oracle
    for the elimination of two held generator matrices."""
    sols = solve_columns(columns(n), cols)
    if sols is None or not all(c.is_integer for lam in sols for c in lam):
        return None
    return [tuple(c.as_integer() for c in lam) for lam in sols]


@given(lattice_actions(), st.data())
@settings(max_examples=80)
def test_cleared_operations_agree_with_the_tau_path(case, data):
    # m = n.combine(a) for a k x k integer matrix a: equal to n when a is
    # unimodular, a proper sublattice when det a = +-2, dependent when it
    # is singular; the oracles multiply the TauScalar columns with mat_mul
    n, phi = case
    aleph, k = n.aleph, n.rank
    a = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                           min_size=k, max_size=k))
    m = n.combine(a)
    assert columns(m) == transpose(mat_mul(transpose(columns(n)), a))
    for x, y in ((n, m), (m, n), (n, n)):
        assert integer_coordinates(x, y) == tau_path_coordinates(x, columns(y))
    assert lattice_equal(n, m) == (
        tau_path_coordinates(n, columns(m)) is not None
        and tau_path_coordinates(m, columns(n)) is not None
    )
    image = aut_image(aleph, phi, n)
    assert columns(image) == mat_mul(columns(n), transpose(central_action(aleph, phi)))
    coords = tau_path_coordinates(n, columns(image))
    want = None if coords is None else tuple(zip(*coords))
    if want is not None and not is_unimodular(want):
        want = None
    assert preserves_lattice(aleph, phi, n) == want


def test_a_polynomial_quotient_is_no_integer_coordinate():
    # on E(2) x R^2, tau*e1 is tau times e1: a polynomial quotient of the
    # pivots, not a constant, so neither lattice holds the other's generator
    aleph = GROUPS["e2_r2"][0]
    n = subgroup_from_data(aleph, [((0, 0, 1, 0), 0)])
    m = subgroup_from_data(aleph, [((0, 0, TAU, 0), 0)])
    assert not lattice_equal(n, m) and not lattice_equal(m, n)
    assert integer_coordinates(n, m) is None
    assert integer_coordinates(m, n) is None
    assert integer_coordinates(n, subgroup_from_data(aleph, [((0, 0, -3, 0), 0)])) == [(-3,)]
    scale = GenericAut(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, TAU, 0), (0, 0, 0, 1)), (0,) * 4, 1)
    assert validate_aut(aleph, scale) == ()
    assert preserves_lattice(aleph, scale, n) is None


@given(central_lattices())
@settings(max_examples=60)
def test_faithful_rep_kills_the_lattice(n):
    # the representation of G / phi(N) is the identity on phi of each
    # generator, and not on phi of half the first: that is no member of N
    aleph = n.aleph
    decision = has_faithful_quotient_rep(aleph, n)
    if not decision.representable:
        return

    def rep(g):
        return decision.rep.matrix(apply_aut(aleph, decision.phi, g))

    assert all(rep(g).is_identity for g in n.generators)
    if n.generators:
        g = n.generators[0]
        assert not rep(group_element(aleph, [x / 2 for x in g.v], g.t / 2)).is_identity


def test_representability_is_the_rank_criterion():
    # the span of the generator columns meets im J x 0 only in 0 exactly
    # when a basis of im J x 0, from J's columns, adds its whole dimension
    # to their rank; random lattices on data with deep zero blocks give
    # both answers
    seen = set()

    @given(central_lattices())
    @settings(max_examples=60)
    def check(n):
        derived = tuple((*b, TauScalar(0)) for b in j_column_basis(n.aleph))
        want = n.rank + len(derived) == rank(columns(n) + derived)
        got = has_faithful_quotient_rep(n.aleph, n).representable
        assert got == want
        seen.add(got)

    check()
    assert seen == {True, False}
