"""Discrete central subgroups: normal forms, images under automorphisms,
automorphism relatedness, and faithful representability of the quotient.

A discrete central subgroup is free of finite rank, generated by elements
[v_i, t_i] with v_i in ker J and t_i an integer multiple of the torsion
generator; the constructors check this once (validate_subgroup).  A lattice
holds only its generator matrix over Z[tau] (``cleared``, cleared once where
the lattice is built), and reads its generators off it on demand.  Reduced
generators, the parts of a split and an automorphic image are one product
of that matrix with an integer matrix or with the central action matrix
M_Z, and are not checked again; a normalizing image zeroes known rows of
it instead, and an inner image is the lattice.  Integer coordinates, so
equality and preservation, eliminate two held matrices; representability
is the rank of the held rows on the coordinates off im J, read off the
Jordan layout; relatedness solves over Q(tau).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .autos import GenericAut, InnerAut, central_action, identity_aut
from .errors import InvalidSubgroup, NotCentral
from .expmap import torsion
from .integers import bezout_row_reduce, det_int, integer_kernel, is_unimodular
from .jordan import (
    GroupElement,
    MultiplicityFunction,
    group_element,
    in_kernel,
)
from .linalg import (
    cleared_columns,
    cleared_int_product,
    cleared_integer_solve,
    cleared_product,
    cleared_rank,
    cleared_solve,
    from_columns,
    identity,
    is_invertible,
    mat_vec,
    nullspace,
    pivot_columns,
    rank,
    solve_columns,
    transpose,
    vec,
    vec_add,
    vec_over,
    vec_sub,
)
from .reps import quotient_faithful_rep
from .scalars import ZERO, cleared_rows, integer_rows


@dataclass(frozen=True, eq=False, repr=False)
class DiscreteCentralSubgroup:
    """Free central subgroup generated by elements [v_i, t_i], held as its
    (v; t) generator columns over one denominator in Z[tau]; equality,
    hash and repr are those of (aleph, generators).  The first violation of
    validate_subgroup raises NotCentral (off ker J x T) or InvalidSubgroup.
    """

    aleph: MultiplicityFunction
    cleared: tuple

    def __init__(self, aleph, generators):
        _hold(aleph, subgroup_from_data(aleph, [(g.v, g.t) for g in generators]).cleared, self)

    @property
    def generators(self) -> tuple:
        """The generators [v_i, t_i], built from the held matrix when read."""
        polys, den = self.cleared
        return tuple(GroupElement(x[:-1], x[-1]) for x in (vec_over(p, den) for p in polys))

    @property
    def rank(self) -> int:
        return len(self.cleared[0])

    @property
    def time_multiples(self) -> tuple:
        """Generator times, off the held time row, as multiples of t0."""
        polys, den = self.cleared
        return tuple(map(torsion(self.aleph).multiple, vec_over((p[-1] for p in polys), den)))

    def combine(self, coeffs) -> "DiscreteCentralSubgroup":
        """The subgroup generated by the combinations sum_i c_i g_i, one per
        column c of the k x j integer matrix coeffs: the product of the
        held (d+1) x k generator matrix with coeffs, over its denominator.
        coeffs keeps its k rows when j = 0."""
        return _hold(self.aleph, cleared_int_product(self.cleared, coeffs))

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return same and (self.aleph, self.generators) == (other.aleph, other.generators)

    def __hash__(self):
        return hash((self.aleph, self.generators))

    def __repr__(self) -> str:
        return f"DiscreteCentralSubgroup(aleph={self.aleph!r}, generators={self.generators!r})"

    def __str__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators)
        return f"<{inside}>" if inside else "<trivial>"


def _hold(aleph, cleared, subgroup=None):
    """A subgroup filled in with no check from its held generator matrix."""
    subgroup = subgroup or object.__new__(DiscreteCentralSubgroup)
    object.__setattr__(subgroup, "aleph", aleph)
    object.__setattr__(subgroup, "cleared", cleared)
    return subgroup


def subgroup_from_data(aleph, gens) -> DiscreteCentralSubgroup:
    """The subgroup of (vector, time) pairs, validated as the constructor does."""
    cleared, errors = _checked(aleph, gens)
    if errors:
        raise errors[0]
    return _hold(aleph, cleared)


def validate_subgroup(aleph: MultiplicityFunction, gens) -> tuple:
    """Why the (vector, time) pairs gens do not generate a discrete central
    subgroup: a generator off ker J x T, dependence, or a rank past
    dim ker J + 1.  Empty when they do."""
    return tuple(str(e) for e in _checked(aleph, gens)[1])


def _checked(aleph, gens):
    """The held (v; t) columns of (vector, time) pairs, and each violation
    as the exception the constructors raise for it."""
    points = [group_element(aleph, v, t) for v, t in gens]
    tor, cleared = torsion(aleph), cleared_columns([(*g.v, g.t) for g in points])
    errors = []
    for g in points:
        if not in_kernel(aleph, g.v):
            errors.append(NotCentral(f"generator {g} has vector part outside ker J"))
        if not tor.contains(g.t):
            errors.append(NotCentral(f"generator {g} has time outside the torsion subgroup"))
    if cleared_rank(cleared[0]) < len(points):
        errors.append(InvalidSubgroup("generators are linearly dependent"))
    bound = len(aleph.kernel_coordinates) + 1
    if len(points) > bound:
        errors.append(InvalidSubgroup(f"rank {len(points)} exceeds dim ker J + 1 = {bound}"))
    return cleared, errors


# ---------------------------------------------------------------------------
# generator reduction and lattice equality


def reduce_generators(subgroup: DiscreteCentralSubgroup):
    """Unimodular change of generators zeroing all times but the first.

    Returns (reduced, A) with A in GL(Z, k) acting by column operations
    on the generator matrix (new generator j is the A-column-j combination
    of the old ones); the surviving time is gcd of the integer multiples,
    nonnegative, times the torsion generator.
    """
    _, a = bezout_row_reduce(subgroup.time_multiples)
    return subgroup.combine(a), tuple(tuple(row) for row in a)


def is_economic(subgroup) -> bool:
    """True when only the first generator may carry a nonzero time."""
    return not any(p[-1] for p in subgroup.cleared[0][1:])


def _same_group(n, m):
    if n.aleph != m.aleph:
        raise ValueError("subgroups live in different groups")


def lattice_equal(n: DiscreteCentralSubgroup, m: DiscreteCentralSubgroup) -> bool:
    """Whether the two generator sets span the same subgroup.

    Each generator of one must have integer coordinates in the other.
    """
    _same_group(n, m)
    return integer_coordinates(m, n) is not None and integer_coordinates(n, m) is not None


def integer_coordinates(subgroup, other):
    """Integer coordinates of each generator of other in the subgroup's
    generators: one tuple of ints per generator, or None when some one is
    no integer combination of them.  The two held generator matrices are
    eliminated over Z[tau] as they are (linalg.cleared_integer_solve).
    """
    return cleared_integer_solve(subgroup.cleared, other.cleared)


# ---------------------------------------------------------------------------
# images under automorphisms: normalization, isomorphism, preservation


def normalize_subgroup(subgroup: DiscreteCentralSubgroup):
    """Automorphism splitting the subgroup into kernel and torsion parts.

    Returns (phi, image) with image = phi(subgroup) generated by [0, t1]
    (when a nonzero time survives reduction) together with time-zero
    generators; every image generator has either v = 0 or t = 0.
    Reduction to economic form happens first, which also makes the
    surviving time positive, so the dilation component is 1.  M_Z adds
    t gamma = -t v1 / t1 to v, so the image zeroes the held v1 alone.
    """
    aleph = subgroup.aleph
    reduced, _ = reduce_generators(subgroup)
    polys, den = reduced.cleared
    if not polys or not polys[0][-1]:
        return identity_aut(aleph), reduced
    # gamma = -v / t1, read off the first held column (p; p_t) as -p / p_t
    first = polys[0]
    gamma = tuple(-x for x in vec_over(first[:-1], first[-1]))
    phi = GenericAut(identity(aleph.dim), gamma, 1)
    split = (((),) * aleph.dim + (first[-1],),)
    return phi, _hold(aleph, (split + polys[1:], den))


def quotient_iso_certificate(n, m, phi) -> bool:
    """Whether phi carries the first subgroup exactly onto the second.

    A true answer certifies that the quotients by the two subgroups are
    isomorphic via the map induced by phi.
    """
    return lattice_equal(aut_image(n.aleph, phi, n), m)


def aut_image(aleph: MultiplicityFunction, phi, subgroup) -> DiscreteCentralSubgroup:
    """The subgroup generated by the images of the generators under phi:
    one product of M_Z = [[Delta, P gamma], [b, alpha]], P the projection
    onto ker J (autos.central_action), cleared once, with the held
    generator matrix; the image's denominator is the product of theirs.

    M_Z is phi on the center ker J x T: if T != 0, J is semisimple and
    e^{alpha t J} = Delta e^{tJ} Delta^-1 = 1 for t in T, so phi(alpha t J)
    = P; if T = 0 every central time is 0; y = t = 0 kills the Heisenberg
    quadratic term; conjugation fixes the center, so an inner
    automorphism's image is the subgroup itself.
    """
    action = central_action(aleph, phi)
    if isinstance(phi, InnerAut):
        return subgroup
    return _hold(aleph, cleared_product(action, subgroup.cleared))


def preserves_lattice(aleph: MultiplicityFunction, phi, subgroup):
    """Integer change-of-basis certificate for phi(N) = N, or None.

    The generators of a central lattice live in ker J x T, where the
    automorphism action is exact; the certificate A expresses each image
    in the generator basis and must be unimodular.
    """
    coords = integer_coordinates(subgroup, aut_image(aleph, phi, subgroup))
    if coords is None:
        return None
    matrix = tuple(zip(*coords))
    if not is_unimodular(matrix):
        return None
    return matrix


# ---------------------------------------------------------------------------
# relatedness by automorphisms


def _significant(subgroup) -> list:
    """Generator vectors restricted to the ker-J coordinates."""
    coords = subgroup.aleph.kernel_coordinates
    return [vec(g.v[i] for i in coords) for g in subgroup.generators]


def _block_boundaries(aleph) -> list:
    """Kernel coordinate ranges [r0, r1), one per zero block size, descending."""
    ends = list(itertools.accumulate(mult for eig, _, mult in aleph.entries if eig.is_zero))
    return list(zip([0] + ends, ends))


def _has_triangular_pattern(aleph, delta_tilde) -> bool:
    return all(
        delta_tilde[r][c].is_zero
        for r0, r1 in _block_boundaries(aleph) for r in range(r0, r1) for c in range(r0)
    )


def related_by_aut_check(n, m, delta_tilde, a) -> bool:
    """Verify a relatedness certificate (restricted operator, integer A).

    The restricted operator acts on the ker-J coordinates and must be
    invertible and block upper triangular in the descending block-size
    grading; A must be unimodular, with first row forced to (+-1, 0, ..)
    when the surviving time is nonzero; the surviving times must agree
    up to sign; and the operator must carry the significant generator
    columns onto the A-combinations of the target's, on every constrained
    column (all of them at time zero, columns 2..k otherwise: the first
    column is absorbed by the translational part of the automorphism).

    Raises ValueError for subgroups of different groups, a subgroup not
    in economic form, or an operator not square of the right size.
    """
    _same_group(n, m)
    aleph = n.aleph
    if not (is_economic(n) and is_economic(m)):
        raise ValueError("both subgroups must be in economic form")
    q = len(aleph.kernel_coordinates)
    if len(delta_tilde) != q or any(len(row) != q for row in delta_tilde):
        raise ValueError(f"restricted operator must be {q} x {q}")
    delta_tilde = tuple(vec(row) for row in delta_tilde)
    if not _has_triangular_pattern(aleph, delta_tilde):
        return False
    if not is_invertible(delta_tilde):
        return False
    if n.rank != m.rank:
        return False
    k = n.rank
    if k == 0:
        return True
    if len(a) != k or any(len(row) != k for row in a):
        return False
    if not is_unimodular(a):
        return False
    a = tuple(tuple(int(x) for x in row) for row in a)
    t1, s1 = n.time_multiples[0], m.time_multiples[0]
    if abs(t1) != abs(s1):
        return False
    if t1:
        # the time row of the automorphism identity forces the first
        # generator to map with coefficient +-1 and nothing else
        if abs(a[0][0]) != 1 or any(a[0][j] != 0 for j in range(1, k)):
            return False
    v_cols = _significant(n)
    u = from_columns(_significant(m))
    constrained = range(1, k) if t1 else range(k)
    return all(
        mat_vec(delta_tilde, v_cols[j]) == mat_vec(u, vec(row[j] for row in a))
        for j in constrained
    )


def related_by_aut_search(n, m, bound: int = 1):
    """Search for a relatedness certificate among the A that admit one.

    Write V and U for the significant generator columns of n and m on the
    constrained columns, and B for the constrained block of A (all of A at
    time zero; otherwise the first row of A is (+-1, 0, ..) and B is A
    without its first row and column), so that a certificate is an
    invertible block upper triangular Delta with Delta V = U B.  Such a
    Delta exists if and only if, on every graded tail (the kernel rows
    from the start r0 of one grading block down to the last),
    dim ker V_tail = dim ker U_tail and U_tail B x = 0 for each x in a
    basis of ker V_tail.

    Necessity: Delta vanishes left of each tail's first block, so
    Delta_tail V_tail = U_tail B with Delta_tail and B invertible, and
    ker V_tail = B^-1 ker U_tail.  Sufficiency, bottom-up: the conditions
    give ker V_tail = ker (U B)_tail, so V and U B have the same row space
    R_i on the tail of each block i.  The rows of V and of U B in block i
    both span R_i / R_{i+1}, so an invertible diagonal block carries the
    former onto the latter modulo R_{i+1} (both families have the same
    reduced echelon form there), and the entries right of the block,
    acting on the rows of V in R_{i+1}, make up the difference.

    The conditions are linear in the entries of A with Q(tau) coefficients
    and split into integer rows R; a nonzero surviving time adds the rows
    a[0][j] = 0 for j >= 1.  The search walks the entries of A in
    [-bound, bound], rows 1..k-1 outer and row 0 inner (a[0][0] in (1, -1)
    when the first row is fixed), keeping at 0 every entry that vanishes on
    the integer solution lattice of R, and returns the first A with
    R vec(A) = 0 and det A = +-1, with the Delta that _solve_delta builds
    for it; the answer passes related_by_aut_check.

    None is a proof that the pair is unrelated when the ranks, the
    surviving times up to sign, or the kernel dimensions on some tail
    differ, or when the lattice forces a whole row or column of A to zero
    (det A then vanishes on it).  Otherwise it means only that no A with
    entries within the bound admits a Delta.
    """
    _same_group(n, m)
    aleph = n.aleph
    if not (is_economic(n) and is_economic(m)):
        raise ValueError("both subgroups must be in economic form")
    if n.rank != m.rank:
        return None
    q = len(aleph.kernel_coordinates)
    k = n.rank
    if k == 0:
        return identity(q), ()
    t1, s1 = n.time_multiples[0], m.time_multiples[0]
    if abs(t1) != abs(s1):
        return None
    fixed = t1 != 0
    boundaries = _block_boundaries(aleph)
    v_cols = _significant(n)
    u_cols = _significant(m)
    constrained = list(range(1, k)) if fixed else list(range(k))
    rows = _admissible_rows(k, q, boundaries, v_cols, u_cols, constrained)
    if rows is None:
        return None
    a = next(_admissible_candidates(k, bound, rows, fixed), None)
    if a is None:
        return None
    return _solve_delta(q, boundaries, v_cols, u_cols, a, constrained), a


def _search_cells(k) -> list:
    """The entries (i, j) of A in search order: rows 1..k-1, then row 0."""
    return [(i, j) for i in (*range(1, k), 0) for j in range(k)]


def _admissible_rows(k, q, boundaries, v_cols, u_cols, constrained):
    """Integer rows R, over the entries of A in search order, whose
    solutions are the A that admit a Delta; None when the kernel
    dimensions of some tail differ (see related_by_aut_search)."""
    cells = _search_cells(k)
    conditions = []
    for r0, _ in boundaries:
        ker_v = nullspace(from_columns([v_cols[j][r0:] for j in constrained]))
        u_tail = tuple(u_cols[j][r0:] for j in constrained)
        if len(ker_v) != len(constrained) - rank(u_tail):
            return None
        for x in ker_v:
            weight = dict(zip(constrained, x))
            for r in range(r0, q):
                conditions.append(
                    [u_cols[i][r] * weight[j] if j in weight else ZERO for i, j in cells]
                )
    rows = integer_rows(cleared_rows(conditions))
    if 0 not in constrained:
        # a surviving time fixes the first row of A to (+-1, 0, ..)
        rows += [[int(cell == (0, j)) for cell in cells] for j in range(1, k)]
    return rows


def _admissible_candidates(k, bound, rows, first_row_fixed):
    """Unimodular A with R vec(A) = 0 in search order, entries bounded."""
    cells = _search_cells(k)
    kernel = integer_kernel(rows, len(cells))
    free = {cell for p, cell in enumerate(cells) if any(x[p] for x in kernel)}
    if any(
        free.isdisjoint((i, j) for j in range(k)) or free.isdisjoint((j, i) for j in range(k))
        for i in range(k)
    ):
        return  # a row or column of A vanishes, and so does det A
    values = range(-bound, bound + 1)
    choices = [
        (0,) if cell not in free
        else (1, -1) if first_row_fixed and cell == (0, 0)
        else values
        for cell in cells
    ]
    for entries in itertools.product(*choices):
        if any(sum(c * x for c, x in zip(row, entries)) for row in rows):
            continue
        a = (entries[-k:],) + tuple(entries[i * k : (i + 1) * k] for i in range(k - 1))
        if abs(det_int(a)) == 1:
            yield a


def _solve_delta(q, boundaries, v_cols, u_cols, a, constrained):
    # solve (id + X) V = U A on the constrained columns with X supported
    # on the triangular pattern, free entries left at zero: the rows of one
    # grading block [r0, r1) share the unknown columns r0..q-1, so each
    # block is one system whose columns are V's coordinates r0..q-1.
    # Delta is invertible iff every diagonal block is; a singular one is
    # completed along null directions of its block's system.  A admits a
    # Delta (see related_by_aut_search), so every system is consistent and
    # the null directions always suffice
    u = from_columns(u_cols)
    targets = [vec_sub(mat_vec(u, vec(row[j] for row in a)), v_cols[j]) for j in constrained]
    delta = [list(row) for row in identity(q)]
    for r0, r1 in boundaries:
        cols = [[v_cols[j][c] for j in constrained] for c in range(r0, q)]
        xs = solve_columns(cols, [[t[r] for t in targets] for r in range(r0, r1)])
        for r, x in zip(range(r0, r1), xs):
            delta[r][r0:] = vec_add(delta[r][r0:], x)
        diag = [tuple(row[r0:r1]) for row in delta[r0:r1]]
        if not is_invertible(tuple(diag)):
            # complete by pivot columns: those of [diag rows | null
            # directions cut to the block] keep the independent rows, and
            # each dependent row takes a pivot null direction, so the
            # completed diagonal block has full rank
            m, null = r1 - r0, nullspace(transpose(cols))
            pivots = pivot_columns(from_columns(diag + [z[:m] for z in null]))
            spare = [null[p - m] for p in pivots if p >= m]
            dependent = [i for i in range(m) if i not in pivots]
            for i, z in zip(dependent, spare):
                delta[r0 + i][r0:] = vec_add(delta[r0 + i][r0:], z)
    return tuple(tuple(row) for row in delta)


# ---------------------------------------------------------------------------
# faithful representability of the quotient


@dataclass(frozen=True)
class FaithfulQuotientDecision:
    """Outcome of the representability test for the quotient by a lattice.

    When representable, phi is an automorphism carrying the subgroup onto
    image, whose generators are supported on the split Euclidean factor
    and the time axis, and rep is the faithful representation of the
    quotient by image (equivalently, of the original quotient through
    the isomorphism induced by phi).
    """

    representable: bool
    phi: object = None
    image: DiscreteCentralSubgroup = None
    rep: object = None


def has_faithful_quotient_rep(aleph: MultiplicityFunction, subgroup) -> FaithfulQuotientDecision:
    """Decide whether the quotient admits a faithful matrix representation.

    The criterion is exact: the real span of the generator columns must
    meet the derived subalgebra im J, embedded at time zero, only in the
    origin.  im J is the coordinate subspace of the derived coordinates
    (every coordinate but the last of each zero block), and a generator
    lies on ker J x T, whose coordinates off im J are the abelian ones and
    t; so the span meets im J x 0 only in 0 exactly when the held
    generator rows restricted to those coordinates are independent (one
    forward elimination, linalg.cleared_rank).

    On success a normalizing automorphism phi lands the generators on the
    split Euclidean factor and the time axis.  With deep kernel
    coordinates (zero blocks of size at least two) phi is a shear
    [[Delta, 0], [0, 1]] clearing the derived-subalgebra components; they
    exist only when T = 0, so every generator time is 0 and nothing is
    left to split.  Otherwise phi is the torsion splitting
    [[id, gamma], [0, 1]] of normalize_subgroup.  Either image is the
    M_Z product with known rows read off as zero.  The representation of
    the transformed quotient is built.
    """
    free = aleph.abelian_coordinates
    rows = [[p[i] for i in free] + [p[-1]] for p in subgroup.cleared[0]]
    if cleared_rank(rows) < subgroup.rank:
        return FaithfulQuotientDecision(representable=False)
    deep = [i for i in aleph.kernel_coordinates if i not in free]
    if deep:
        phi, image = _kernel_shear(aleph, subgroup, free, deep)
    else:
        phi, image = normalize_subgroup(subgroup)
    rep = quotient_faithful_rep(aleph, image)
    return FaithfulQuotientDecision(representable=True, phi=phi, image=image, rep=rep)


def _kernel_shear(aleph, subgroup, abelian, deep):
    """(phi, image): the shear clearing the deep-kernel rows of the
    generators, and the subgroup's image under it.

    Kernel coordinates of zero blocks of size at least two (deep) lie in
    the derived subalgebra, so the separation criterion makes the
    clearing shear solvable.  The shear fixes J, hence is an automorphism
    with trivial dilation.  L a = e, for each generator's abelian and
    deep parts a and e, solves the held rows [a | e] as they stand; Delta
    is id with -L in the deep rows, so the image zeroes the held e - L a.
    """
    polys, den = subgroup.cleared
    rows = [[p[i] for i in (*abelian, *deep)] for p in polys]
    solved = cleared_solve(rows, len(abelian), len(deep))
    if solved is None:
        raise ValueError("separation criterion violated during shear solve")
    ls, d = solved
    delta = [list(row) for row in identity(aleph.dim)]
    for r, row in zip(deep, ls):
        for c, x in zip(abelian, vec_over(row, d)):
            delta[r][c] = -x
    image = tuple(tuple(() if i in deep else x for i, x in enumerate(p)) for p in polys)
    return GenericAut(delta, (0,) * aleph.dim, 1), _hold(aleph, (image, den))
