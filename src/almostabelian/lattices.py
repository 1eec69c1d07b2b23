"""Discrete central subgroups: normal forms, images under automorphisms,
automorphism relatedness, and faithful representability of the quotient.

A discrete central subgroup is free of finite rank, generated by elements
[v_i, t_i] with v_i in ker J and t_i an integer multiple of the torsion
generator.  It is held as its (v; t) generator columns, and everything
done with it is linear algebra on them: a lattice derived from another
(reduced generators, the parts of a split, an automorphic image) is one
product of the generator matrix with an integer matrix or with the
central action matrix M_Z (aut_image), and equality testing and the
relatedness criterion are exact solves over Q(tau) with integer answers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .autos import GenericAut, central_action, compose, identity_aut
from .errors import NotCentral
from .expmap import torsion
from .integers import bezout_row_reduce, det_int, integer_kernel, is_unimodular
from .jordan import (
    GroupElement,
    MultiplicityFunction,
    derived_algebra_basis,
    group_element,
    in_kernel,
)
from .linalg import (
    from_columns,
    identity,
    is_invertible,
    mat_mul,
    mat_vec,
    nullspace,
    pivot_columns,
    rank,
    solve_columns,
    transpose,
    vec,
    vec_add,
    vec_sub,
)
from .reps import quotient_faithful_rep
from .scalars import ZERO, integer_rows


@dataclass(frozen=True)
class DiscreteCentralSubgroup:
    """Free central subgroup given by a tuple of generators [v_i, t_i].

    The generators are coerced once; columns holds their (v; t) columns.
    """

    aleph: MultiplicityFunction
    generators: tuple
    columns: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, aleph, generators):
        coerced = (group_element(aleph, g.v, g.t) for g in generators)
        _hold(self, aleph, tuple((*g.v, g.t) for g in coerced))

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def time_multiples(self) -> tuple:
        """Generator times as integer multiples of the torsion generator."""
        tor = torsion(self.aleph)
        out = []
        for g in self.generators:
            m = tor.multiple(g.t)
            if m is None:
                raise NotCentral(f"generator {g} has time outside the torsion subgroup")
            out.append(m)
        return tuple(out)

    def combine(self, coeffs) -> "DiscreteCentralSubgroup":
        """The subgroup generated by the combinations sum_i c_i g_i, one per
        column c of the k x j integer matrix coeffs: the product of the
        (d+1) x k generator matrix with coeffs.  coeffs keeps its k rows
        when j = 0."""
        points = transpose(mat_mul(transpose(self.columns), coeffs))
        return _hold(object.__new__(DiscreteCentralSubgroup), self.aleph, points)

    def __str__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators)
        return f"<{inside}>" if inside else "<trivial>"


def _hold(subgroup, aleph, cols):
    """Fill a subgroup from its (v; t) generator columns, whose entries
    are TauScalars already."""
    object.__setattr__(subgroup, "aleph", aleph)
    object.__setattr__(subgroup, "generators", tuple(GroupElement(p[:-1], p[-1]) for p in cols))
    object.__setattr__(subgroup, "columns", cols)
    return subgroup


def subgroup_from_data(aleph, gens) -> DiscreteCentralSubgroup:
    """Build a subgroup from (vector, time) pairs without validation."""
    return DiscreteCentralSubgroup(aleph, [group_element(aleph, v, t) for v, t in gens])


def validate_subgroup(aleph: MultiplicityFunction, subgroup) -> tuple:
    """Centrality, independence, and rank-bound check.

    Returns a tuple of violation descriptions; empty when the generators
    define a valid discrete central subgroup.
    """
    violations = [why for g in subgroup.generators for why in _off_center(aleph, g)]
    k = subgroup.rank
    if rank(subgroup.columns) < k:
        violations.append("generators are linearly dependent")
    bound = len(aleph.kernel_coordinates) + 1
    if k > bound:
        violations.append(f"rank {k} exceeds dim ker J + 1 = {bound}")
    return tuple(violations)


def _off_center(aleph, g):
    """Why the generator g lies outside the center ker J x T, if it does."""
    if not in_kernel(aleph, g.v):
        yield f"generator {g} has vector part outside ker J"
    if not torsion(aleph).contains(g.t):
        yield f"generator {g} has time outside the torsion subgroup"


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
    return all(g.t.is_zero for g in subgroup.generators[1:])


def _same_group(n, m):
    if n.aleph != m.aleph:
        raise ValueError("subgroups live in different groups")


def lattice_equal(n: DiscreteCentralSubgroup, m: DiscreteCentralSubgroup) -> bool:
    """Whether the two generator sets span the same subgroup.

    Each generator of one must have integer coordinates in the other,
    solved exactly over the coordinate field.
    """
    _same_group(n, m)
    return (
        integer_coordinates(m, n.columns) is not None
        and integer_coordinates(n, m.columns) is not None
    )


def integer_coordinates(subgroup, cols):
    """Integer coordinates of each column in the subgroup's generators.

    Returns one tuple of ints per column, or None when some column is not
    an integer combination of the generator columns.
    """
    sols = solve_columns(subgroup.columns, cols)
    if sols is None or not all(c.is_integer for lam in sols for c in lam):
        return None
    return [tuple(c.as_integer() for c in lam) for lam in sols]


# ---------------------------------------------------------------------------
# images under automorphisms: normalization, isomorphism, preservation


def normalize_subgroup(subgroup: DiscreteCentralSubgroup):
    """Automorphism splitting the subgroup into kernel and torsion parts.

    Returns (phi, image) with image = phi(subgroup) generated by [0, t1]
    (when a nonzero time survives reduction) together with time-zero
    generators; every image generator has either v = 0 or t = 0.
    Reduction to economic form happens first, which also makes the
    surviving time positive, so the dilation component is 1.
    """
    aleph = subgroup.aleph
    reduced, _ = reduce_generators(subgroup)
    gens = reduced.generators
    if not gens or gens[0].t.is_zero:
        return identity_aut(aleph), reduced
    t1 = gens[0].t
    gamma = tuple(-(c / t1) for c in gens[0].v)
    phi = GenericAut(identity(aleph.dim), gamma, 1)
    return phi, aut_image(aleph, phi, reduced)


def quotient_iso_certificate(n, m, phi) -> bool:
    """Whether phi carries the first subgroup exactly onto the second.

    A true answer certifies that the quotients by the two subgroups are
    isomorphic via the map induced by phi.
    """
    return lattice_equal(aut_image(n.aleph, phi, n), m)


def aut_image(aleph: MultiplicityFunction, phi, subgroup) -> DiscreteCentralSubgroup:
    """The subgroup generated by the images of the generators under phi:
    one product of M_Z = [[Delta, P gamma], [b, alpha]], P the projection
    onto ker J (autos.central_action), with the generator columns.

    M_Z is phi on the center ker J x T: if T != 0, J is semisimple and
    e^{alpha t J} = Delta e^{tJ} Delta^-1 = 1 for t in T, so phi(alpha t J)
    = P; if T = 0 every central time is 0; y = t = 0 kills the Heisenberg
    quadratic term; conjugation fixes the center.  A generator outside
    ker J x T raises NotCentral.
    """
    for g in subgroup.generators:
        for why in _off_center(aleph, g):
            raise NotCentral(why)
    cols = mat_mul(subgroup.columns, transpose(central_action(aleph, phi)))
    return _hold(object.__new__(DiscreteCentralSubgroup), aleph, cols)


def preserves_lattice(aleph: MultiplicityFunction, phi, subgroup):
    """Integer change-of-basis certificate for phi(N) = N, or None.

    The generators of a central lattice live in ker J x T, where the
    automorphism action is exact; the certificate A expresses each image
    in the generator basis and must be unimodular.
    """
    coords = integer_coordinates(subgroup, aut_image(aleph, phi, subgroup).columns)
    if coords is None:
        return None
    matrix = tuple(zip(*coords))
    if not is_unimodular(matrix):
        return None
    return matrix


# ---------------------------------------------------------------------------
# relatedness by automorphisms


def _kernel_grading(aleph: MultiplicityFunction) -> list:
    """Kernel multiplicities grouped by block size, sizes descending."""
    return [(size, mult) for eig, size, mult in aleph.entries if eig.is_zero]


def _significant(subgroup) -> list:
    """Generator vectors restricted to the ker-J coordinates."""
    coords = subgroup.aleph.kernel_coordinates
    return [vec(g.v[i] for i in coords) for g in subgroup.generators]


def _block_boundaries(aleph) -> list:
    out = []
    start = 0
    for _, mult in _kernel_grading(aleph):
        out.append((start, start + mult))
        start += mult
    return out


def _has_triangular_pattern(aleph, delta_tilde) -> bool:
    for r0, r1 in _block_boundaries(aleph):
        for r in range(r0, r1):
            for c in range(r0):
                if not delta_tilde[r][c].is_zero:
                    return False
    return True


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
    t1 = n.generators[0].t
    s1 = m.generators[0].t
    if t1 != s1 and t1 != -s1:
        return False
    if not t1.is_zero:
        # the time row of the automorphism identity forces the first
        # generator to map with coefficient +-1 and nothing else
        if abs(a[0][0]) != 1 or any(a[0][j] != 0 for j in range(1, k)):
            return False
    v_cols = _significant(n)
    u = from_columns(_significant(m))
    constrained = range(k) if t1.is_zero else range(1, k)
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
    t1 = n.generators[0].t
    s1 = m.generators[0].t
    if t1 != s1 and t1 != -s1:
        return None
    fixed = not t1.is_zero
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
    rows = integer_rows(conditions)
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
            # complete as build_P does with pivot columns: the pivot columns
            # of [diag rows | null directions cut to the block] keep the
            # independent rows, and each dependent row takes a pivot null
            # direction
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


def has_faithful_quotient_rep(
    aleph: MultiplicityFunction, subgroup
) -> FaithfulQuotientDecision:
    """Decide whether the quotient admits a faithful matrix representation.

    The criterion is exact: the real span of the generator columns must
    meet the derived subalgebra, embedded at time zero, only in the
    origin.  On success the normalizing chain (a shear clearing the
    derived-subalgebra components, then the torsion splitting) lands the
    generators on the split Euclidean factor and the time axis, and the
    representation of the transformed quotient is built.
    """
    gen_cols = subgroup.columns
    derived = tuple((*b, ZERO) for b in derived_algebra_basis(aleph))
    if rank(gen_cols) + len(derived) != rank(gen_cols + derived):
        return FaithfulQuotientDecision(representable=False)
    shear = _kernel_shear(aleph, subgroup)
    splitter, image = normalize_subgroup(aut_image(aleph, shear, subgroup))
    phi = compose(splitter, shear)
    rep = quotient_faithful_rep(aleph, image)
    return FaithfulQuotientDecision(
        representable=True, phi=phi, image=image, rep=rep
    )


def _kernel_shear(aleph, subgroup):
    """Automorphism clearing the deep-kernel rows of the generators.

    Kernel coordinates of zero blocks of size at least two lie in the
    derived subalgebra, so the separation criterion makes the clearing
    shear solvable (deep coordinates only exist when the torsion is
    trivial, forcing every generator time to zero).  The shear fixes J,
    hence is an automorphism with trivial dilation.
    """
    abelian = sorted(aleph.abelian_coordinates)
    deep = [i for i in aleph.kernel_coordinates if i not in set(abelian)]
    if not deep:
        return identity_aut(aleph)
    gens = subgroup.generators
    # the unknown |deep| x |abelian| matrix L maps each generator's abelian
    # part onto its deep part, so row r of L combines the abelian
    # coordinate columns into deep coordinate r's column
    ls = solve_columns(
        [[g.v[i] for g in gens] for i in abelian], [[g.v[i] for g in gens] for i in deep]
    )
    if ls is None:
        raise ValueError("separation criterion violated during shear solve")
    d = aleph.dim
    delta = [list(row) for row in identity(d)]
    for r, row in zip(deep, ls):
        for c, value in zip(abelian, row):
            delta[r][c] = -value
    return GenericAut(tuple(tuple(row) for row in delta), (0,) * d, 1)
