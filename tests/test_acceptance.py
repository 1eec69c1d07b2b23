"""Acceptance gate: nine fixture-level criteria, one pass line each.

Run with -s to see the PASS lines; tolerances are pinned here and match
the oracle defaults.  Everything is seeded for determinism.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from almostabelian.autos import (
    GenericAut,
    apply_aut,
    compose,
    differential,
    inner_aut,
    validate_aut,
)
from almostabelian.expmap import block_exp, e2_witness, exp_map, is_exponential, torsion
from almostabelian.integers import det_int
from almostabelian.jordan import algebra_element, group_element, in_kernel
from almostabelian.lattices import (
    has_faithful_quotient_rep,
    lattice_equal,
    normalize_subgroup,
    preserves_lattice,
    quotient_iso_certificate,
    reduce_generators,
    subgroup_from_data,
)
from almostabelian.linalg import from_columns, identity, mat_mul, solve, vec
from almostabelian.numeric import group_rep_numeric
from almostabelian.oracle import antihermitian_probe, exp_crosscheck, injectivity_probe
from almostabelian.reps import group_rep_G
from almostabelian.scalars import TAU
from almostabelian.subgroups import ConnectedSubgroupSpec, is_quotient_subgroup_closed

SEED = 0x5EED
HOM_TOL = 1e-9
ORACLE_TOL = 1e-9
IDENTITY_GAP = 1e-6
ANTIHERM_TOL = 1e-8

FIXTURES = ["aff", "heis", "heis_r", "e2", "e2_r2", "mix"]

_started = time.monotonic()


def _report(line):
    print(line)


@pytest.fixture(scope="module", autouse=True)
def _runtime_banner():
    yield
    _report(f"acceptance suite runtime: {time.monotonic() - _started:.1f}s")


def _all_fixtures(request):
    return {name: request.getfixturevalue(name) for name in FIXTURES}


def test_criterion_1_exp_closed_form_vs_oracle(request):
    for name, aleph in _all_fixtures(request).items():
        report = exp_crosscheck(aleph, 100, seed=SEED)
        assert report.passed, f"{name}: {report.line()}"
        assert report.max_dev < ORACLE_TOL
    _report("PASS criterion 1: closed-form exponential matches dense expm on 6 fixtures")


def test_criterion_2_exponentiality_decisions(request, e2, heis, heis_r, aff):
    verdict = is_exponential(e2)
    assert not verdict.exponential
    assert verdict.witness.re == 0 and verdict.witness.im != 0
    witness = e2_witness(e2)
    assert witness.collision_time == TAU
    hit = exp_map(e2, algebra_element(e2, witness.collision_vector, TAU))
    base = exp_map(e2, algebra_element(e2, (0, 0), TAU))
    assert hit == base and any(not c.is_zero for c in witness.collision_vector)
    collision = injectivity_probe(e2, 100, seed=SEED)
    assert collision.passed and collision.max_dev < IDENTITY_GAP
    for aleph in (heis, heis_r, aff):
        assert is_exponential(aleph).exponential
        probe = injectivity_probe(aleph, 1000, seed=SEED)
        assert probe.passed, probe.line()
    _report("PASS criterion 2: exponentiality verdicts, witness, and collision probes")


def test_criterion_3_torsion(e2, mix, heis):
    t_e2 = torsion(e2)
    assert not t_e2.is_trivial and t_e2.t0 == TAU and t_e2.omega0 == 1
    t_mix = torsion(mix)
    assert t_mix.t0 == 3 * TAU and t_mix.omega0 == Fraction(1, 3)
    assert torsion(heis).is_trivial
    for aleph, t0 in ((e2, t_e2.t0), (mix, t_mix.t0)):
        assert block_exp(t0, aleph) == identity(aleph.dim)
    _report("PASS criterion 3: torsion generators exact, e^(t0 J) = id")


def test_criterion_4_representations(request, e2):
    for t, expect in ((TAU, True), (2 * TAU, True), (TAU / 2, False)):
        g = group_element(e2, (0, 0), t)
        assert group_rep_G(e2, g).is_identity == expect
    rng = random.Random(SEED)
    for kind in ("GI", "GII"):
        for _ in range(1000):
            v = np.array([rng.uniform(-2, 2) for _ in range(2)])
            t = rng.uniform(-2, 2)
            if max(np.max(np.abs(v)), abs(t)) < 1e-3:
                continue
            gap = np.max(np.abs(group_rep_numeric(e2, v, t, kind) - np.eye(4)))
            assert gap > IDENTITY_GAP
    for name, aleph in _all_fixtures(request).items():
        d = aleph.dim
        worst = 0.0
        for _ in range(1000):
            vg = np.array([rng.uniform(-2, 2) for _ in range(d)])
            vh = np.array([rng.uniform(-2, 2) for _ in range(d)])
            tg, th = rng.uniform(-2, 2), rng.uniform(-2, 2)
            lhs = group_rep_numeric(aleph, vg, tg, "G") @ group_rep_numeric(aleph, vh, th, "G")
            rot = group_rep_numeric(aleph, np.zeros(d), tg, "G")[1:, 1:]
            rhs = group_rep_numeric(aleph, vg + rot @ vh, tg + th, "G")
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst < HOM_TOL, f"{name}: homomorphism deviation {worst}"
    _report("PASS criterion 4: rep kernels, faithfulness, homomorphism property")


def test_criterion_5_lattice_pipeline(e2_r2):
    n = subgroup_from_data(
        e2_r2, [((0, 0, 1, 0), 2 * TAU), ((0, 0, 0, 1), 3 * TAU)]
    )
    reduced, a = reduce_generators(n)
    assert reduced.generators[0].t == TAU
    assert reduced.generators[1].t == 0
    assert det_int(a) in (1, -1)
    assert lattice_equal(n, reduced)
    phi, image = normalize_subgroup(n)
    for g in image.generators:
        time_part = g.t.is_zero
        vec_part = all(c.is_zero for c in g.v)
        assert vec_part or (time_part and in_kernel(e2_r2, g.v))
    assert quotient_iso_certificate(n, image, phi)
    _report("PASS criterion 5: reduction, normalization, and quotient certificate")


def _in_lattice(subgroup, g):
    cols = subgroup.columns
    if not cols:
        return g.t.is_zero and all(c.is_zero for c in g.v)
    sol = solve(from_columns(cols), vec(tuple(g.v) + (g.t,)))
    return sol is not None and all(c.is_integer for c in sol)


def test_criterion_6_faithful_representability(heis, heis_r):
    obstructed = has_faithful_quotient_rep(
        heis, subgroup_from_data(heis, [((1, 0), 0)])
    )
    assert not obstructed.representable
    n = subgroup_from_data(heis_r, [((0, 0, 1), 0)])
    decision = has_faithful_quotient_rep(heis_r, n)
    assert decision.representable
    for g in decision.image.generators:
        assert decision.rep.matrix(g).is_identity
    rng = random.Random(SEED)
    probes = 0
    while probes < 1000:
        v = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(3))
        t = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        g = group_element(heis_r, v, t)
        if _in_lattice(n, g):
            continue
        probes += 1
        image = apply_aut(heis_r, decision.phi, g)
        gap = np.max(
            np.abs(decision.rep.matrix(image).numeric() - np.eye(decision.rep.dimension))
        )
        assert gap > IDENTITY_GAP
    _report("PASS criterion 6: quotient representation kernel is exactly the lattice")


def _random_e2_aut(rng):
    alpha = rng.choice((1, -1))
    while True:
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if a or b:
            break
    if alpha == 1:
        delta = ((a, -b), (b, a))
    else:
        delta = ((a, b), (b, -a))
    gamma = tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(2))
    return GenericAut(delta, gamma, alpha)


def test_criterion_7_automorphism_laws(request, e2):
    phi = GenericAut(((1, 0), (0, -1)), (0, 0), -1)
    assert validate_aut(e2, phi) == ()
    rng = random.Random(SEED)
    for _ in range(20):
        g = group_element(
            e2,
            (Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 2)),
            rng.randint(-3, 3) * TAU,
        )
        twice = apply_aut(e2, phi, apply_aut(e2, phi, g))
        assert twice == g
    n = subgroup_from_data(e2, [((0, 0), TAU)])
    assert preserves_lattice(e2, phi, n) == ((-1,),)
    heis = request.getfixturevalue("heis")
    heis_r = request.getfixturevalue("heis_r")
    fixture_lattices = [
        (e2, n),
        (heis, subgroup_from_data(heis, [((1, 0), 0)])),
        (heis_r, subgroup_from_data(heis_r, [((1, 0, 0), 0), ((0, 0, 1), 0)])),
    ]
    for aleph, lattice in fixture_lattices:
        eye = tuple(
            tuple(int(i == j) for j in range(lattice.rank))
            for i in range(lattice.rank)
        )
        for _ in range(10):
            v = tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(aleph.dim))
            t = (
                rng.randint(-2, 2) * torsion(aleph).t0
                if not torsion(aleph).is_trivial
                else Fraction(rng.randint(-4, 4), 2)
            )
            inner = inner_aut(aleph, group_element(aleph, v, t))
            assert preserves_lattice(aleph, inner, lattice) == eye
    for _ in range(100):
        phi1, phi2 = _random_e2_aut(rng), _random_e2_aut(rng)
        assert validate_aut(e2, phi1) == () and validate_aut(e2, phi2) == ()
        composed = compose(phi1, phi2)
        assert differential(e2, composed) == mat_mul(
            differential(e2, phi1), differential(e2, phi2)
        )
    _report("PASS criterion 7: involution, lattice certificates, differential functor")


def _closedness_oracle(basis_rows, n, bound=10, tol=1e-9):
    # brute force: integer lattice points landing in span(basis) by float
    # least squares, then compare achievable rank with the slice dimension
    cols = np.array(
        [[float(x) for x in tuple(g.v) + (g.t,)] for g in n.generators]
    ).T
    h = np.array([[float(x) for x in row] + [0.0] for row in basis_rows]).T
    inside = []
    for m1 in range(-bound, bound + 1):
        for m2 in range(-bound, bound + 1):
            if not (m1 or m2):
                continue
            point = cols @ np.array([m1, m2], dtype=float)
            coeff, *_ = np.linalg.lstsq(h, point, rcond=None)
            if np.linalg.norm(h @ coeff - point) < tol:
                inside.append(point)
    inside_rank = (
        np.linalg.matrix_rank(np.array(inside), tol=1e-8) if inside else 0
    )
    stacked = np.hstack([h, cols])
    slice_dim = (
        np.linalg.matrix_rank(h, tol=1e-8)
        + np.linalg.matrix_rank(cols, tol=1e-8)
        - np.linalg.matrix_rank(stacked, tol=1e-8)
    )
    return bool(inside_rank == slice_dim)


def test_criterion_8_closedness_dichotomy(e2_r2):
    n = subgroup_from_data(e2_r2, [((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0)])
    rational = ((0, 0, 1, 1),)
    irrational = ((0, 0, 1, TAU),)
    for basis, expected in ((rational, True), (irrational, False)):
        spec = ConnectedSubgroupSpec(e2_r2, basis)
        decided = is_quotient_subgroup_closed(e2_r2, spec, n)
        assert decided is expected
        assert _closedness_oracle(basis, n) is expected
    _report("PASS criterion 8: closedness dichotomy matches the integer oracle")


def test_criterion_9_antihermitian():
    report = antihermitian_probe(1000, 6, seed=SEED)
    assert report.passed, report.line()
    assert report.max_dev < ANTIHERM_TOL
    assert report.detail == "checked=1000/1000"
    _report("PASS criterion 9: anti-Hermitian commutator probe over 1000 triples")
