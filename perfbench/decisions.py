"""Workload ``decisions``: lattice and subgroup decisions on groups of
dimension 2 to 7.

Each round holds four passes over three copies, with different inputs,
of 15 quick decisions (3 generator reductions, 2 normalizations, 2
lattice equalities, 3 faithful-representability decisions, 2
lattice-preservation certificates, 3 closed-or-dense decisions), each
pass followed by one of 4 relatedness searches on rank-2 lattices in
heis x R: at bounds 1 and 2, an unrelated pair (rational against
irrational relation direction, so the search runs to the end) and an
automorphic image pair.  The searches are a 46th of the operations and
half of the time: the tail.  Every answer
is known by construction; the seed picks the lattice coordinates, never
the shapes or the answers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from core import Group, Op, Rng
from reference import (
    TAU_POINTS,
    at,
    closedness_oracle,
    frac_matmul,
    frac_rank,
    frac_solve,
    int_det,
    require,
    to_float,
)

def _columns(gens):
    """Generator columns with the time given as its multiple of t0.

    Scaling the time axis is invertible and leaves the ker J part alone,
    so ranks and integer relations are the same as for the true columns.
    """
    return [list(v) + [Fraction(m)] for v, m in gens]


# The quick decisions come three times with different inputs, so that no
# single input sets the median, and the same quick operations run once
# before each search, so that in a run of about ten rounds each has some
# forty repeats to take its median time from.
COPIES = 3
DECISION_GROUPS = ("heis", "heis_r", "e2_r2", "heis_r2", "e2_r3", "mix_r2", "heis_e2_r3")


def build(aa, seed: int) -> list:
    rng = Rng(seed)
    g = {name: Group(aa, name) for name in DECISION_GROUPS}
    quick = []
    for _ in range(COPIES):
        quick.extend(_quick(aa, rng, g))
    heis_r = g["heis_r"]
    ops = []
    for bound in (1, 2):
        for search in (_unrelated_op(aa, rng, heis_r, bound), _related_op(aa, rng, heis_r, bound)):
            ops.extend(quick)
            ops.append(search)
    return ops


def _quick(aa, rng, g) -> list:
    ops = []
    ops += [_reduce_op(aa, rng, g["e2_r2"]), _reduce_op(aa, rng, g["e2_r3"]),
            _reduce_op(aa, rng, g["mix_r2"])]
    ops += [_normalize_op(aa, rng, g["e2_r2"]), _normalize_op(aa, rng, g["e2_r3"])]
    ops += [_equal_op(aa, rng, g["heis_r2"], True), _equal_op(aa, rng, g["e2_r3"], False)]
    ops += [_faithful_op(aa, rng, g["heis"], False), _faithful_op(aa, rng, g["heis_r2"], True),
            _faithful_op(aa, rng, g["heis_e2_r3"], True)]
    ops += [_preserves_op(aa, rng, g["e2_r2"], inner=True),
            _preserves_op(aa, rng, g["e2_r3"], inner=False)]
    ops += [_closed_op(aa, rng, g["e2_r2"], True), _closed_op(aa, rng, g["e2_r2"], False),
            _closed_op(aa, rng, g["e2_r3"], False)]
    return ops


# ---------------------------------------------------------------------------
# generator reduction and normalization


def _times_lattice(rng, grp, rank):
    """Rank-k lattice on the abelian coordinates with nonzero times."""
    coords = grp.aleph.abelian_coordinates
    while True:
        gens = []
        for i in range(rank):
            v = grp.unit(*[(c, Fraction(rng.randint(-4, 4)) + (4 if c == coords[i] else 0))
                           for c in coords])
            gens.append((v, rng.choice((-5, -3, -2, 2, 3, 4, 6))))
        if frac_rank(_columns(gens)) == rank:
            return gens


def _reduce_op(aa, rng, grp):
    gens = _times_lattice(rng, grp, min(3, len(grp.aleph.abelian_coordinates)))
    lattice = grp.lattice(gens)
    return Op("reduce_generators", lambda: aa.reduce_generators(lattice),
              _check_reduce(grp, gens))


def _check_reduce(grp, gens):
    def check(result):
        reduced, a = result
        a = [[int(x) for x in row] for row in a]
        require(abs(int_det(a)) == 1, f"reduction matrix {a} is not unimodular")
        cols = _columns(gens)
        k = len(gens)
        new_cols = [[sum(cols[i][r] * a[i][j] for i in range(k)) for r in range(grp.dim + 1)]
                    for j in range(k)]
        turns = grp.ref.t0_turns
        for j, gen in enumerate(reduced.generators):
            for r in TAU_POINTS:
                require([at(x, r) for x in gen.v] == new_cols[j][:-1],
                        "reduced vector is not the A-combination of the vectors")
                require(at(gen.t, r) == new_cols[j][-1] * turns * r,
                        "reduced time is not the A-combination of the times")
        g = 0
        for _, m in gens:
            g = math.gcd(g, m)
        require(new_cols[0][-1] == g and all(c[-1] == 0 for c in new_cols[1:]),
                "reduced times are not (gcd, 0, ..., 0)")
    return check


def _normalize_op(aa, rng, grp):
    gens = _times_lattice(rng, grp, 2)
    lattice = grp.lattice(gens)
    return Op("normalize_subgroup", lambda: aa.normalize_subgroup(lattice),
              _check_normalize(grp, len(gens)))


def _check_normalize(grp, rank):
    kernel = set(grp.ref.kernel)

    def check(result):
        _, image = result
        require(image.rank == rank, "normalization changed the rank")
        for g in image.generators:
            vec_zero = all(str(x) == "0" for x in g.v)
            time_zero = str(g.t) == "0"
            in_kernel = all(str(x) == "0" for i, x in enumerate(g.v) if i not in kernel)
            require(vec_zero or (time_zero and in_kernel),
                    f"normalized generator {g} is neither pure time nor in ker J")
    return check


# ---------------------------------------------------------------------------
# equality, representability, preservation, closedness


def _equal_op(aa, rng, grp, equal):
    coords = grp.aleph.kernel_coordinates
    while True:
        gens = [(grp.unit(*[(c, Fraction(rng.randint(-3, 3)) + (5 if c == coords[i] else 0))
                            for c in coords]), 0) for i in range(2)]
        if frac_rank(_columns(gens)) == 2:
            break
    if equal:
        u = [[1, rng.randint(-3, 3)], [0, 1]] if rng.random() < 0.5 else [[1, 0], [rng.randint(-3, 3), 1]]
        other = [(tuple(sum(gens[i][0][r] * u[i][j] for i in range(2)) for r in range(grp.dim)), 0)
                 for j in range(2)]
    else:
        other = [gens[0], (tuple(2 * x for x in gens[1][0]), 0)]
    n, m = grp.lattice(gens), grp.lattice(other)
    return Op("lattice_equal", lambda: aa.lattice_equal(n, m), _check_is(equal, "lattice_equal"))


def _check_is(expected, what):
    def check(result):
        require(result is expected, f"{what} returned {result}, expected {expected}")
    return check


def _faithful_op(aa, rng, grp, representable):
    """Generators on the abelian coordinates (representable) or with one
    generator inside [L, L] = im J (not representable)."""
    ref = grp.ref
    abelian = grp.aleph.abelian_coordinates
    deep = [c for c in ref.kernel if c not in abelian]
    gens = []
    for i, c in enumerate(abelian[:2]):
        v = grp.unit((c, Fraction(rng.randint(1, 4))), *[(d, rng.frac(3, 2)) for d in deep])
        gens.append((v, 0))
    if not representable:
        gens = [(grp.unit((deep[0], Fraction(rng.randint(1, 4)))), 0)] + gens
    lattice = grp.lattice(gens)
    return Op("has_faithful_quotient_rep", lambda: aa.has_faithful_quotient_rep(grp.aleph, lattice),
              _check_faithful(aa, grp, gens, representable))


def _check_faithful(aa, grp, gens, representable):
    j = grp.ref.j
    image = [[j[r][c] for r in range(grp.dim)] + [Fraction(0)] for c in range(grp.dim)]
    cols = _columns(gens)
    separate = frac_rank(cols) + frac_rank(image) == frac_rank(cols + image)
    require(separate is representable, "faithful input built wrong")

    def check(decision):
        require(decision.representable is representable,
                f"representable = {decision.representable}, expected {representable}")
        if representable:
            for g in decision.image.generators:
                m = decision.rep.matrix(g)
                require(m.is_exact and all(str(m.entries[i][k]) == ("1" if i == k else "0")
                                           for i in range(m.dimension) for k in range(m.dimension)),
                        "a lattice generator is not in the kernel of the quotient representation")
    return check


def _preserves_op(aa, rng, grp, inner):
    gens = _times_lattice(rng, grp, 2)
    lattice = grp.lattice(gens)
    a = grp.aleph
    if inner:
        k = aa.group_element(a, tuple(rng.frac() for _ in range(grp.dim)), aa.TAU * rng.choice((-1, 1)))
        phi = aa.inner_aut(a, k)
        expected = ((1, 0), (0, 1))
    else:
        # Delta doubles one abelian coordinate and fixes the rest: the
        # image lies in the lattice only with a non-unimodular change
        c = a.abelian_coordinates[0]
        delta = tuple(tuple((2 if r == c else 1) if r == q else 0 for q in range(grp.dim))
                      for r in range(grp.dim))
        phi = aa.GenericAut(delta, (0,) * grp.dim, 1)
        expected = _preservation_certificate(grp, gens, delta)
    return Op("preserves_lattice", lambda: aa.preserves_lattice(a, phi, lattice),
              _check_preserves(expected))


def _preservation_certificate(grp, gens, delta):
    """A with phi(N) = N A for gamma = 0, alpha = 1, or None, in rationals."""
    cols = _columns(gens)
    images = [[sum(delta[r][q] * v[q] for q in range(grp.dim)) for r in range(grp.dim)] + [Fraction(m)]
              for v, m in gens]
    coords = []
    for img in images:
        sol = frac_solve(cols, img)
        if sol is None or any(x.denominator != 1 for x in sol):
            return None
        coords.append([int(x) for x in sol])
    a = [[coords[j][i] for j in range(len(gens))] for i in range(len(gens))]
    return tuple(map(tuple, a)) if abs(int_det(a)) == 1 else None


def _check_preserves(expected):
    def check(result):
        got = None if result is None else tuple(tuple(int(x) for x in row) for row in result)
        require(got == expected, f"preserves_lattice returned {got}, expected {expected}")
    return check


def _closed_op(aa, rng, grp, rational):
    """H = exp of one direction in the plane of two lattice generators."""
    c1, c2 = grp.aleph.abelian_coordinates[:2]
    gens = [(grp.unit((c1, Fraction(1))), 0), (grp.unit((c2, Fraction(1))), 0)]
    p, q = rng.ints(2, 4, nonzero=True)
    slope = Fraction(q) if rational else q * aa.TAU
    basis = (grp.unit((c1, Fraction(p)), (c2, slope)),)
    lattice = grp.lattice(gens)
    spec = aa.ConnectedSubgroupSpec(grp.aleph, basis)
    return Op("is_quotient_subgroup_closed",
              lambda: aa.is_quotient_subgroup_closed(grp.aleph, spec, lattice),
              _check_closed(rational, basis, gens))


def _check_closed(rational, basis, gens):
    answer = _check_is(rational, "is_quotient_subgroup_closed")

    def check(result):
        answer(result)
        oracle = closedness_oracle(
            [[to_float(x) for x in basis[0]]], [[float(x) for x in col] for col in _columns(gens)]
        )
        require(oracle is rational, "closedness oracle disagrees with the construction")
    return check


# ---------------------------------------------------------------------------
# relatedness


def _kernel_pair(rng):
    return [rng.nonzero(5, 3) for _ in range(3)]


def _unrelated_op(aa, rng, grp, bound):
    """<(0,0,a),(b,0,0)> against <(0,0,a),(b,0,c*tau)>: the relation
    direction is rational in one and irrational in the other, and an
    integer A cannot carry one onto the other."""
    a_, b_, c_ = _kernel_pair(rng)
    n = grp.lattice([(grp.unit((2, a_)), 0), (grp.unit((0, b_)), 0)])
    m = grp.aa.subgroup_from_data(grp.aleph, [(grp.unit((2, a_)), 0), ((b_, 0, c_ * aa.TAU), 0)])
    return Op(f"related_by_aut_search_b{bound}", lambda: aa.related_by_aut_search(n, m, bound),
              _check_is(None, "related_by_aut_search on an unrelated pair"))


def _related_op(aa, rng, grp, bound):
    """M is the image of N under a block-triangular Delta on ker J.

    N's generators lie on the two kernel axes of heis x R (coordinates 0
    and 2), so the search hits at the first upper-triangular unimodular
    candidate whatever the seed, and every seed does the same work.
    """
    x, y = rng.nonzero(5, 3), rng.nonzero(5, 3)
    p, r, s = rng.nonzero(3, 2), rng.nonzero(3, 2), rng.nonzero(3, 2)
    n = grp.lattice([((x, 0, 0), 0), ((0, 0, y), 0)])
    m = grp.lattice([((p * x, 0, 0), 0), ((r * y, 0, s * y), 0)])
    return Op(f"related_by_aut_search_b{bound}", lambda: aa.related_by_aut_search(n, m, bound),
              _check_related(aa, n, m, [[x, 0], [0, y]]))


def _check_related(aa, n, m, v):
    u = [[Fraction(str(g.v[c])) for g in m.generators] for c in (0, 2)]

    def check(found):
        require(found is not None, "an automorphic image pair was not found")
        delta, a = found
        require(aa.related_by_aut_check(n, m, delta, a), "certificate fails related_by_aut_check")
        a = [[int(x) for x in row] for row in a]
        require(abs(int_det(a)) == 1, "A is not unimodular")
        require(str(delta[1][0]) == "0", "Delta is not block upper triangular")
        for r in TAU_POINTS:
            d = [[at(x, r) for x in row] for row in delta]
            require(frac_matmul(d, v) == frac_matmul(u, a), "Delta V != U A")
    return check
