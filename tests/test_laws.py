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

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from almostabelian import subgroups
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
from almostabelian.errors import ExactnessUnavailable
from almostabelian.expmap import (
    DilationGroup,
    apply_exp_integral,
    apply_phi_tj,
    dilation_conjugator,
    dilation_contains,
    dilation_group,
    exp_map,
    group_inverse,
    group_mul,
    phi_matrix,
    torsion,
)
from almostabelian.integers import is_unimodular, kernel_complement_split
from almostabelian.jordan import (
    algebra_element,
    build_jordan,
    group_element,
    group_identity,
    multiplicity_function,
)
from almostabelian.lattices import (
    aut_image,
    has_faithful_quotient_rep,
    lattice_equal,
    normalize_subgroup,
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
    solve,
)
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
def multiplicity_functions(draw):
    """Half of the draws mirror every eigenvalue a + ib to -a + ib, so
    that -1 is a dilation of non-nilpotent data too."""
    mirrored = draw(st.booleans())
    table, dim = {}, 0
    for _ in range(draw(st.integers(1, 3))):
        eig, size, mult = draw(eigenvalues), draw(st.integers(1, 3)), draw(st.integers(1, 2))
        keys = {(eig, size), (G(-eig.re, eig.im), size)} if mirrored else {(eig, size)}
        width = len(keys) * mult * size * (2 if eig.im else 1)
        if dim + width <= 8 and not keys & table.keys():
            table.update(dict.fromkeys(keys, mult))
            dim += width
    assume(table and set(table) != {(G(0), 1)})
    return multiplicity_function(table)


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
# the lattice layer


@st.composite
def central_lattices(draw, groups=multiplicity_functions()):
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
    n = subgroup_from_data(aleph, gens)
    assume(validate_subgroup(aleph, n) == ())
    return n


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
    assert reduced.columns == tuple((*g.v, g.t) for g in want)


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


@given(central_lattices())
@settings(max_examples=60)
def test_normalize_carries_the_lattice_onto_its_image(n):
    phi, image = normalize_subgroup(n)
    assert validate_aut(n.aleph, phi) == ()
    moved = subgroup_from_data(n.aleph, [(g.v, g.t) for g in generator_images(phi, n)])
    assert lattice_equal(moved, image)


@st.composite
def lattice_actions(draw):
    """A central lattice and an automorphism that validate_aut accepts:
    generic or inner on random data or on the catalog's rotation groups,
    whose torsion is nontrivial and whose generator times are nonzero
    multiples of t0, or ten-parameter on the catalog's Heisenberg
    extensions."""
    kind = draw(st.sampled_from(KINDS))
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


@given(lattice_actions())
@settings(max_examples=80)
def test_aut_image_is_the_generator_images(case):
    n, phi = case
    image = aut_image(n.aleph, phi, n)
    want = generator_images(phi, n)
    assert image.generators == want
    assert image.columns == tuple((*g.v, g.t) for g in want)


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
