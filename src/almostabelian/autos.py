"""Automorphisms of almost Abelian groups: validation, action, composition.

An automorphism of a simply connected group is determined by its
differential, so every datum but an inner one is an Automorphism holding
its (d+1) x (d+1) differential, and composition and inversion multiply or
invert differentials.  The group picks the rules and the action: the
central extensions of the Heisenberg group take the ten-parameter family
(GenericAut's data are among it) and its polynomial action, every other
group the generic family (Delta, gamma, alpha) with Delta J = alpha J
Delta and the integrated exponential.  Inner automorphisms keep their
defining group element and act by exact conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidAutomorphism
from .expmap import (
    apply_exp_tj,
    apply_phi_tj,
    block_exp,
    dilation_contains,
    group_inverse,
    group_mul,
)
from .jordan import (
    GroupElement,
    MultiplicityFunction,
    build_jordan,
    group_element,
    numeric_mode,
)
from .linalg import (
    Matrix,
    Vector,
    identity,
    inverse,
    is_invertible,
    mat_mul,
    mat_vec,
    vec,
    vec_add,
    vec_scale,
    vec_sub,
)
from .scalars import ZERO, TauScalar, as_tau


@dataclass(frozen=True)
class Automorphism:
    """An automorphism stored as its differential, the (d+1) x (d+1)
    matrix [[Delta, gamma], [b, alpha]] in the coordinates (v..., t).

    The constructor checks the shape only; validate_aut checks validity
    on a given group.  alpha may be zero: on a Heisenberg extension the
    time row (0, beta2, 0..., alpha) may swap y and t.
    """

    matrix: Matrix

    def __init__(self, matrix):
        matrix = tuple(vec(row) for row in matrix)
        if not matrix or any(len(row) != len(matrix) for row in matrix):
            raise InvalidAutomorphism("the differential must be a square matrix")
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return len(self.matrix) - 1

    @property
    def delta(self) -> Matrix:
        return tuple(row[:-1] for row in self.matrix[:-1])

    @property
    def gamma(self) -> Vector:
        return tuple(row[-1] for row in self.matrix[:-1])

    @property
    def alpha(self) -> TauScalar:
        return self.matrix[-1][-1]


def GenericAut(delta, gamma, alpha) -> Automorphism:
    """The automorphism with differential [[Delta, gamma], [0, alpha]]:
    delta is a d x d matrix, gamma a d-vector, alpha a nonzero scalar.
    """
    alpha = as_tau(alpha)
    if alpha.is_zero:
        raise InvalidAutomorphism("alpha must be nonzero")
    delta, gamma = tuple(vec(row) for row in delta), vec(gamma)
    if any(len(row) != len(delta) for row in delta):
        raise InvalidAutomorphism("delta must be a square matrix")
    if len(gamma) != len(delta):
        raise InvalidAutomorphism("gamma length must match delta size")
    rows = tuple(row + (g,) for row, g in zip(delta, gamma))
    return Automorphism(rows + ((ZERO,) * len(delta) + (alpha,),))


def HeisAut(
    alpha, beta2=0, gamma1=0, gamma2=0, delta12=0, delta22=1, phi01=(), eta=(), rho=(), phi11=()
) -> Automorphism:
    """The ten-parameter automorphism datum of a Heisenberg central
    extension.

    Coordinates are (x, y, w..., t) with x the derived direction and y its
    partner in the size-two block.  The differential's corner holds the
    invariant alpha*delta22 - beta2*gamma2, which must be nonzero, and
    phi11 must be invertible (validate_aut).
    """
    alpha, beta2, gamma1, gamma2, delta12, delta22 = map(
        as_tau, (alpha, beta2, gamma1, gamma2, delta12, delta22)
    )
    phi01, eta, rho = vec(phi01), vec(eta), vec(rho)
    phi11 = tuple(vec(row) for row in phi11)
    if {len(phi01), len(eta), len(rho), len(phi11)} != {len(phi01)}:
        raise InvalidAutomorphism("phi01, eta, rho, and phi11 must share one size")
    zeros = (ZERO,) * len(phi01)
    return Automorphism((
        (alpha * delta22 - beta2 * gamma2, delta12, *phi01, gamma1),
        (ZERO, delta22, *zeros, gamma2),
        *((ZERO, e, *row, r) for e, row, r in zip(eta, phi11, rho)),
        (ZERO, beta2, *zeros, alpha),
    ))


@dataclass(frozen=True)
class InnerAut:
    """Conjugation h -> g h g^{-1} by the stored group element g = [u, s]."""

    aleph: MultiplicityFunction
    u: Vector
    s: TauScalar

    @property
    def element(self) -> GroupElement:
        return group_element(self.aleph, self.u, self.s)


def inner_aut(aleph: MultiplicityFunction, g: GroupElement) -> InnerAut:
    g = group_element(aleph, g.v, g.t)
    return InnerAut(aleph=aleph, u=g.v, s=g.t)


# ---------------------------------------------------------------------------
# case detection and validation


def is_heisenberg_extension(aleph: MultiplicityFunction) -> bool:
    """True iff the datum is one (0, 2) block plus trivial blocks only."""
    seen_core = False
    for eig, size, mult in aleph.entries:
        if not eig.is_zero:
            return False
        if size == 2 and mult == 1:
            seen_core = True
        elif size != 1:
            return False
    return seen_core


def _off_pattern(d: int):
    """Cells of a (d+1) x (d+1) differential that vanish in the
    ten-parameter family, coordinates (x, y, w..., t)."""
    yield from ((i, 0) for i in range(1, d + 1))
    yield from ((i, j) for i in (1, d) for j in range(2, d))


def _misfit(aleph: MultiplicityFunction, phi):
    """Why the datum cannot act on the group at all, or None: an inner
    automorphism of another group, a datum of another dimension, or a
    differential outside the group's family.  Only zeros are read: off a
    Heisenberg extension the time row must be (0, ..., 0, alpha) with
    alpha nonzero, and on one the ten-parameter zero pattern must hold."""
    if isinstance(phi, InnerAut):
        if phi.aleph != aleph:
            return "inner automorphism belongs to a different group"
        return None
    if phi.dim != aleph.dim:
        return "dimension mismatch"
    m, d = phi.matrix, phi.dim
    if not is_heisenberg_extension(aleph):
        if m[d][d].is_zero or not all(c.is_zero for c in m[d][:d]):
            return "ten-parameter automorphisms require a Heisenberg central extension datum"
    elif not all(m[i][j].is_zero for i, j in _off_pattern(d)):
        return "not the differential of a ten-parameter datum"
    return None


def validate_aut(aleph: MultiplicityFunction, phi) -> tuple:
    """Exact validity check; returns a tuple of violation descriptions.

    An empty tuple means the datum defines an automorphism of the group
    of aleph.  The rules depend on the group.  Off a Heisenberg extension
    the differential is [[Delta, gamma], [0, alpha]] with Delta J =
    alpha J Delta, Delta invertible and alpha an admissible dilation.  On
    one, it is a ten-parameter differential whose corner is the nonzero
    invariant alpha*delta22 - beta2*gamma2 and whose phi11 is invertible.

    The second rule contains the first there.  J e_y = e_x and J kills
    every other coordinate, so Delta J = alpha J Delta reads Delta e_x =
    alpha Delta[y][y] e_x on e_y and 0 = alpha Delta[y][j] e_x on every
    other e_j.  Hence Delta[y][j] = 0 for j != y, Delta[w][x] = 0 and
    Delta[x][x] = alpha * Delta[y][y]; with the generic time row (0, ...,
    0, alpha) that is the ten-parameter pattern with beta2 = 0, whose
    invariant is alpha*delta22, the corner.  So every valid generic datum
    is a ten-parameter datum with the same differential, on that set the
    two sets of rules are equivalent (Delta is invertible iff the corner,
    delta22 and phi11 are), and since a differential determines its
    automorphism, the generic integral and the ten-parameter polynomial
    are one map there.
    """
    if misfit := _misfit(aleph, phi):
        return (misfit,)
    if isinstance(phi, InnerAut):
        return ()
    m, d = phi.matrix, phi.dim
    violations = []
    if is_heisenberg_extension(aleph):
        invariant = m[d][d] * m[1][1] - m[d][1] * m[1][d]
        if m[0][0] != invariant:
            violations.append("the corner must equal alpha*delta22 - beta2*gamma2")
        if invariant.is_zero:
            violations.append("alpha*delta22 - beta2*gamma2 must be nonzero")
        phi11 = tuple(row[2:d] for row in m[2:d])
        if not is_invertible(phi11):
            violations.append("phi11 is singular")
        return tuple(violations)
    jmat = build_jordan(aleph)
    lhs = mat_mul(phi.delta, jmat)
    rhs = tuple(vec_scale(phi.alpha, row) for row in mat_mul(jmat, phi.delta))
    if lhs != rhs:
        violations.append("Delta J != alpha J Delta")
    if not is_invertible(phi.delta):
        violations.append("Delta is singular")
    if not dilation_contains(aleph, phi.alpha):
        violations.append(
            f"alpha = {phi.alpha} is not an admissible dilation"
        )
    return tuple(violations)


def identity_aut(aleph: MultiplicityFunction) -> Automorphism:
    return Automorphism(identity(aleph.dim + 1))


# ---------------------------------------------------------------------------
# action on group elements


def apply_aut(aleph: MultiplicityFunction, phi, g: GroupElement, mode: str = "exact"):
    """Image of g under the automorphism, exact or floating point.

    The image of (v, t) is one product M (v, t), and the group picks M.
    On a Heisenberg extension M is the differential, and the
    ten-parameter action adds heis_action in x; it is always exact.
    Elsewhere M is the differential with its gamma column integrated
    along the flow, phi(alpha t J) gamma, so that the image is
    [Delta v + t phi(alpha t J) gamma, alpha t]; exact mode raises
    ExactnessUnavailable when that column has no closed form.  Inner
    automorphisms act by conjugation.  Both modes raise
    InvalidAutomorphism for a datum that cannot act on the group at all
    (see _misfit): an inner automorphism of another group, a datum of
    another dimension, or a differential outside the group's family.
    """
    if misfit := _misfit(aleph, phi):
        raise InvalidAutomorphism(misfit)
    if numeric_mode(mode):
        from .numeric import apply_aut_numeric, element_numeric

        v, t = element_numeric(g)
        return apply_aut_numeric(aleph, phi, v, t)
    if isinstance(phi, InnerAut):
        return _apply_inner(aleph, phi, g)
    m, heis = phi.matrix, is_heisenberg_extension(aleph)
    if not heis:
        col = apply_phi_tj(aleph, phi.alpha * g.t, phi.gamma)
        m = tuple(row[:-1] + (c,) for row, c in zip(m, col)) + m[-1:]
    *moved, s = mat_vec(m, (*g.v, g.t))
    if heis:
        moved[0] += heis_action(m, g.v[1], g.t)
    return group_element(aleph, moved, s)


def central_action(aleph: MultiplicityFunction, phi) -> Matrix:
    """M_Z = [[Delta, P gamma], [b, alpha]], P the projection onto ker J:
    phi on the center ker J x T (lattices.aut_image says why), the identity
    for an inner automorphism.  Raises InvalidAutomorphism as apply_aut does."""
    if misfit := _misfit(aleph, phi):
        raise InvalidAutomorphism(misfit)
    if isinstance(phi, InnerAut):
        return identity(aleph.dim + 1)
    off = set(range(aleph.dim)) - set(aleph.kernel_coordinates)
    return tuple(row[:-1] + (ZERO,) if i in off else row for i, row in enumerate(phi.matrix))


def _apply_inner(aleph, phi: InnerAut, g: GroupElement) -> GroupElement:
    # g h g^{-1} = [u + e^{sJ} v - e^{tJ} u, t]
    moved = vec_add(
        phi.u,
        vec_sub(apply_exp_tj(aleph, phi.s, g.v), apply_exp_tj(aleph, g.t, phi.u)),
    )
    return group_element(aleph, moved, g.t)


def heis_action(m, y, t):
    """The quadratic term of the ten-parameter action: the image of (v, t)
    = (x, y, w..., t) is the differential m times (v, t), plus this term in
    x.  m, y and t may hold exact scalars or floats: this is the one place
    the term is written.
    """
    d = len(m) - 1
    alpha, beta2, gamma2, delta22 = m[d][d], m[d][1], m[1][d], m[1][1]
    return beta2 * gamma2 * t * y + alpha * gamma2 * t * t / 2 + delta22 * beta2 * y * y / 2


# ---------------------------------------------------------------------------
# differentials, composition and inversion


def inner_as_generic(aleph: MultiplicityFunction, phi: InnerAut) -> Automorphism:
    """Generic form (Delta, gamma, alpha) = (e^{sJ}, -J u, 1) of an inner
    automorphism; exact only where e^{sJ} has a closed form."""
    delta = block_exp(phi.s, aleph)
    jmat = build_jordan(aleph)
    gamma = tuple(-c for c in mat_vec(jmat, phi.u))
    return GenericAut(delta, gamma, 1)


def differential(aleph: MultiplicityFunction, phi) -> Matrix:
    """(d+1) x (d+1) derivative at the identity, coordinates (v..., t).

    aleph is read only to expand an inner automorphism.
    """
    if isinstance(phi, InnerAut):
        phi = inner_as_generic(aleph, phi)
    return phi.matrix


def compose(phi1, phi2):
    """Automorphism phi1 after phi2: the product of the differentials.

    Two inner automorphisms compose into the inner automorphism of the
    product element.  Otherwise an inner factor is expanded on its own
    group, and the other factor must fit that group.  Factors of
    different dimensions raise InvalidAutomorphism.
    """
    if isinstance(phi1, InnerAut) and isinstance(phi2, InnerAut):
        if phi1.aleph != phi2.aleph:
            raise InvalidAutomorphism("inner automorphisms of different groups")
        product = group_mul(phi1.aleph, phi1.element, phi2.element)
        return inner_aut(phi1.aleph, product)
    aleph = next(
        (phi.aleph for phi in (phi1, phi2) if isinstance(phi, InnerAut)), None
    )
    if aleph is not None:
        for phi in (phi1, phi2):
            if misfit := _misfit(aleph, phi):
                raise InvalidAutomorphism(misfit)
    m1, m2 = differential(aleph, phi1), differential(aleph, phi2)
    if len(m1) != len(m2):
        raise InvalidAutomorphism("dimension mismatch")
    return Automorphism(mat_mul(m1, m2))


def invert(phi):
    """Inverse automorphism: the inverse of the differential, or the inner
    automorphism of the inverse element."""
    if isinstance(phi, InnerAut):
        return inner_aut(phi.aleph, group_inverse(phi.aleph, phi.element))
    return Automorphism(inverse(phi.matrix))
