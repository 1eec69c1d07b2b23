"""Automorphisms of almost Abelian groups: validation, action, composition.

Two parameter families cover every datum.  The generic family (Delta,
gamma, alpha) requires Delta J = alpha J Delta exactly and acts through
the integrated exponential; the central extensions of the Heisenberg
group admit a strictly larger ten-parameter family whose action is
polynomial.  Inner automorphisms keep their defining group element and
act by exact conjugation.  An automorphism of a simply connected group is
determined by its differential, so composition and inversion multiply or
invert (d+1) x (d+1) differentials and read the result back.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidAutomorphism
from .expmap import (
    apply_exp_integral,
    apply_exp_tj,
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
)
from .scalars import TauScalar, as_tau

ZERO = TauScalar(0)
ONE = TauScalar(1)


@dataclass(frozen=True)
class GenericAut:
    """Automorphism datum (Delta, gamma, alpha) for a non-Heisenberg group.

    delta is a d x d matrix, gamma a d-vector, alpha a nonzero scalar.
    Validity against a given multiplicity function is checked separately
    by validate_aut.
    """

    delta: Matrix
    gamma: Vector
    alpha: TauScalar

    def __init__(self, delta, gamma, alpha):
        object.__setattr__(
            self, "delta", tuple(vec(row) for row in delta)
        )
        object.__setattr__(self, "gamma", vec(gamma))
        object.__setattr__(self, "alpha", as_tau(alpha))
        if self.alpha.is_zero:
            raise InvalidAutomorphism("alpha must be nonzero")
        if any(len(row) != len(self.delta) for row in self.delta):
            raise InvalidAutomorphism("delta must be a square matrix")
        if len(self.gamma) != len(self.delta):
            raise InvalidAutomorphism("gamma length must match delta size")

    @property
    def dim(self) -> int:
        return len(self.delta)


@dataclass(frozen=True)
class HeisAut:
    """Ten-parameter automorphism datum for Heisenberg central extensions.

    Coordinates are (x, y, w..., t) with x the derived direction and y its
    partner in the size-two block.  The action is polynomial, hence always
    exact.  The invariant alpha*delta22 - beta2*gamma2 must be nonzero and
    phi11 invertible.
    """

    alpha: TauScalar
    beta2: TauScalar
    gamma1: TauScalar
    gamma2: TauScalar
    delta12: TauScalar
    delta22: TauScalar
    phi01: Vector
    eta: Vector
    rho: Vector
    phi11: Matrix

    def __init__(
        self,
        alpha,
        beta2=0,
        gamma1=0,
        gamma2=0,
        delta12=0,
        delta22=1,
        phi01=(),
        eta=(),
        rho=(),
        phi11=(),
    ):
        for name, value in (
            ("alpha", alpha),
            ("beta2", beta2),
            ("gamma1", gamma1),
            ("gamma2", gamma2),
            ("delta12", delta12),
            ("delta22", delta22),
        ):
            object.__setattr__(self, name, as_tau(value))
        object.__setattr__(self, "phi01", vec(phi01))
        object.__setattr__(self, "eta", vec(eta))
        object.__setattr__(self, "rho", vec(rho))
        object.__setattr__(
            self, "phi11", tuple(vec(row) for row in phi11)
        )
        sizes = {len(self.phi01), len(self.eta), len(self.rho), len(self.phi11)}
        if sizes != {len(self.phi01)}:
            raise InvalidAutomorphism(
                "phi01, eta, rho, and phi11 must share one size"
            )

    @property
    def invariant(self) -> TauScalar:
        return self.alpha * self.delta22 - self.beta2 * self.gamma2

    @property
    def dim(self) -> int:
        return 2 + len(self.phi01)


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


def _misfit(aleph: MultiplicityFunction, phi):
    """Why the datum cannot act on the group at all, or None: an inner
    automorphism of another group, a ten-parameter datum off a Heisenberg
    extension, or a datum of another dimension."""
    if isinstance(phi, InnerAut):
        if phi.aleph != aleph:
            return "inner automorphism belongs to a different group"
        return None
    if not isinstance(phi, (GenericAut, HeisAut)):
        raise TypeError(f"not an automorphism datum: {type(phi).__name__}")
    if isinstance(phi, HeisAut) and not is_heisenberg_extension(aleph):
        return "ten-parameter automorphisms require a Heisenberg central extension datum"
    if phi.dim != aleph.dim:
        return "dimension mismatch"
    return None


def validate_aut(aleph: MultiplicityFunction, phi) -> tuple:
    """Exact validity check; returns a tuple of violation descriptions.

    An empty tuple means the datum defines an automorphism of the group
    of aleph.
    """
    if misfit := _misfit(aleph, phi):
        return (misfit,)
    if isinstance(phi, InnerAut):
        return ()
    if isinstance(phi, HeisAut):
        violations = []
        if phi.invariant.is_zero:
            violations.append("alpha*delta22 - beta2*gamma2 must be nonzero")
        if phi.phi11 and not is_invertible(phi.phi11):
            violations.append("phi11 is singular")
        return tuple(violations)
    violations = []
    jmat = build_jordan(aleph)
    lhs = mat_mul(phi.delta, jmat)
    rhs = tuple(
        tuple(phi.alpha * e for e in row)
        for row in mat_mul(jmat, phi.delta)
    )
    if lhs != rhs:
        violations.append("Delta J != alpha J Delta")
    if not is_invertible(phi.delta):
        violations.append("Delta is singular")
    if not dilation_contains(aleph, phi.alpha):
        violations.append(
            f"alpha = {phi.alpha} is not an admissible dilation"
        )
    return tuple(violations)


def identity_aut(aleph: MultiplicityFunction) -> GenericAut:
    d = aleph.dim
    return GenericAut(identity(d), (0,) * d, 1)


# ---------------------------------------------------------------------------
# action on group elements


def apply_aut(aleph: MultiplicityFunction, phi, g: GroupElement, mode: str = "exact"):
    """Image of g under the automorphism, exact or floating point.

    Exact mode raises ExactnessUnavailable when the integrated exponential
    in the generic action has no closed form at alpha*t; the polynomial
    Heisenberg action is always exact.  Both modes raise
    InvalidAutomorphism for a datum that cannot act on the group at all:
    an inner automorphism of another group, a ten-parameter datum on a
    group that is not a Heisenberg extension, or a datum of another
    dimension.
    """
    if misfit := _misfit(aleph, phi):
        raise InvalidAutomorphism(misfit)
    if numeric_mode(mode):
        from .numeric import apply_aut_numeric, element_numeric

        v, t = element_numeric(g)
        return apply_aut_numeric(aleph, phi, v, t)
    if isinstance(phi, InnerAut):
        return _apply_inner(aleph, phi, g)
    if isinstance(phi, HeisAut):
        v, t = heis_action(_heis_differential(phi), g.v, g.t)
        return group_element(aleph, v, t)
    scaled_t = g.t * phi.alpha
    integral = apply_exp_integral(aleph, scaled_t, phi.gamma)
    moved = vec_add(
        vec_scale(ONE / phi.alpha, integral),
        mat_vec(phi.delta, g.v),
    )
    return group_element(aleph, moved, scaled_t)


def _apply_inner(aleph, phi: InnerAut, g: GroupElement) -> GroupElement:
    # g h g^{-1} = [u + e^{sJ} v - e^{tJ} u, t]
    moved = vec_add(
        phi.u,
        tuple(
            a - b
            for a, b in zip(
                apply_exp_tj(aleph, phi.s, g.v),
                apply_exp_tj(aleph, g.t, phi.u),
            )
        ),
    )
    return group_element(aleph, moved, g.t)


def heis_action(m, v, t) -> tuple:
    """The ten-parameter action on coordinates (v, t) = (x, y, w..., t),
    read off the automorphism's differential m.

    The image is m (v, t) plus one quadratic term in x.  m, v and t may
    hold exact scalars or floats: this is the one place the polynomial is
    written.  Returns the image as (v, t).
    """
    d = len(v)
    x, y = v[0], v[1]
    alpha, beta2, gamma2, delta22 = m[d][d], m[d][1], m[1][d], m[1][1]
    new_x = (
        m[0][0] * x
        + m[0][1] * y
        + m[0][d] * t
        + beta2 * gamma2 * t * y
        + alpha * gamma2 * t * t / 2
        + delta22 * beta2 * y * y / 2
    )
    new_w = []
    for i in range(2, d):
        new_x = new_x + m[0][i] * v[i]
        acc = m[i][1] * y + m[i][d] * t
        for j in range(2, d):
            acc = acc + m[i][j] * v[j]
        new_w.append(acc)
    return (new_x, delta22 * y + gamma2 * t, *new_w), beta2 * y + alpha * t


# ---------------------------------------------------------------------------
# differentials, composition and inversion


def inner_as_generic(aleph: MultiplicityFunction, phi: InnerAut) -> GenericAut:
    """Generic form (Delta, gamma, alpha) = (e^{sJ}, -J u, 1) of an inner
    automorphism; exact only where e^{sJ} has a closed form."""
    delta = block_exp(phi.s, aleph)
    jmat = build_jordan(aleph)
    gamma = tuple(-c for c in mat_vec(jmat, phi.u))
    return GenericAut(delta, gamma, 1)


def _heis_differential(phi: HeisAut) -> Matrix:
    """Differential in the package coordinate order (x, y, w..., t)."""
    zeros = (ZERO,) * len(phi.phi01)
    return (
        (phi.invariant, phi.delta12, *phi.phi01, phi.gamma1),
        (ZERO, phi.delta22, *zeros, phi.gamma2),
        *((ZERO, e, *row, r) for e, row, r in zip(phi.eta, phi.phi11, phi.rho)),
        (ZERO, phi.beta2, *zeros, phi.alpha),
    )


def _heis_from_differential(matrix: Matrix) -> HeisAut:
    """The ten-parameter datum with this differential.

    Raises InvalidAutomorphism when the matrix is not of that form: a
    nonzero entry off the family's pattern, or a corner other than the
    invariant alpha*delta22 - beta2*gamma2.
    """
    d = len(matrix) - 1
    w = matrix[2:d]
    phi = HeisAut(
        matrix[d][d], beta2=matrix[d][1], gamma1=matrix[0][d],
        gamma2=matrix[1][d], delta12=matrix[0][1], delta22=matrix[1][1],
        phi01=matrix[0][2:d], eta=[row[1] for row in w],
        rho=[row[d] for row in w], phi11=[row[2:d] for row in w],
    )
    if _heis_differential(phi) != matrix:
        raise InvalidAutomorphism("not the differential of a ten-parameter datum")
    return phi


def differential(aleph: MultiplicityFunction, phi) -> Matrix:
    """(d+1) x (d+1) derivative at the identity, coordinates (v..., t).

    aleph is read only to expand an inner automorphism.
    """
    if isinstance(phi, InnerAut):
        phi = inner_as_generic(aleph, phi)
    if isinstance(phi, HeisAut):
        return _heis_differential(phi)
    if isinstance(phi, GenericAut):
        rows = tuple(row + (g,) for row, g in zip(phi.delta, phi.gamma))
        return rows + ((ZERO,) * phi.dim + (phi.alpha,),)
    raise TypeError(f"not an automorphism datum: {type(phi).__name__}")


def _from_differential(matrix: Matrix, *phis):
    """The automorphism with this differential, in the widest family
    among phis: ten-parameter if any of them is, generic otherwise."""
    if any(isinstance(phi, HeisAut) for phi in phis):
        return _heis_from_differential(matrix)
    d = len(matrix) - 1
    rows = matrix[:d]
    return GenericAut([r[:d] for r in rows], [r[d] for r in rows], matrix[d][d])


def compose(phi1, phi2):
    """Automorphism phi1 after phi2: the product of the differentials.

    Two inner automorphisms compose into the inner automorphism of the
    product element.  Otherwise the result is generic, or ten-parameter
    when either factor is; an inner factor is expanded on its own group,
    and the other factor must fit that group.  Factors of different
    dimensions raise InvalidAutomorphism.
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
    return _from_differential(mat_mul(m1, m2), phi1, phi2)


def invert(phi):
    """Inverse automorphism within the same family: the inverse of the
    differential, or the inner automorphism of the inverse element."""
    if isinstance(phi, InnerAut):
        return inner_aut(phi.aleph, group_inverse(phi.aleph, phi.element))
    return _from_differential(inverse(differential(None, phi)), phi)

