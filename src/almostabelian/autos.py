"""Automorphisms of almost Abelian groups: validation, action, composition.

Two parameter families cover every datum.  The generic family (Delta,
gamma, alpha) requires Delta J = alpha J Delta exactly and acts through
the integrated exponential; the central extensions of the Heisenberg
group admit a strictly larger ten-parameter family whose action is
polynomial.  Inner automorphisms keep their defining group element and
act by exact conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidAutomorphism
from .integers import is_unimodular
from .expmap import (
    apply_exp_integral,
    apply_exp_tj,
    block_exp,
    dilation_contains,
)
from .jordan import (
    GroupElement,
    MultiplicityFunction,
    build_jordan,
    group_element,
    group_inverse,
    group_mul,
)
from .lattices import DiscreteCentralSubgroup, integer_coordinates
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


def _rational(value, name: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"{name} must be a rational number, got {type(value).__name__}")


@dataclass(frozen=True)
class GenericAut:
    """Automorphism datum (Delta, gamma, alpha) for a non-Heisenberg group.

    delta is a d x d matrix, gamma a d-vector, alpha a nonzero rational.
    Validity against a given multiplicity function is checked separately
    by validate_aut.
    """

    delta: Matrix
    gamma: Vector
    alpha: Fraction

    def __init__(self, delta, gamma, alpha):
        object.__setattr__(
            self, "delta", tuple(vec(row) for row in delta)
        )
        object.__setattr__(self, "gamma", vec(gamma))
        object.__setattr__(self, "alpha", _rational(alpha, "alpha"))
        if self.alpha == 0:
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

    alpha: Fraction
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
        object.__setattr__(self, "alpha", _rational(alpha, "alpha"))
        for name, value in (
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


def _heis_misfit(aleph: MultiplicityFunction, phi: HeisAut):
    """Why a ten-parameter datum cannot act on the group at all, or None."""
    if not is_heisenberg_extension(aleph):
        return "ten-parameter automorphisms require a Heisenberg central extension datum"
    if phi.dim != aleph.dim:
        return "dimension mismatch"
    return None


def validate_aut(aleph: MultiplicityFunction, phi) -> tuple:
    """Exact validity check; returns a tuple of violation descriptions.

    An empty tuple means the datum defines an automorphism of the group
    of aleph.
    """
    if isinstance(phi, InnerAut):
        if phi.aleph != aleph:
            return ("inner automorphism belongs to a different group",)
        return ()
    if isinstance(phi, HeisAut):
        misfit = _heis_misfit(aleph, phi)
        if misfit:
            return (misfit,)
        violations = []
        if phi.invariant.is_zero:
            violations.append("alpha*delta22 - beta2*gamma2 must be nonzero")
        if phi.phi11 and not is_invertible(phi.phi11):
            violations.append("phi11 is singular")
        return tuple(violations)
    if isinstance(phi, GenericAut):
        violations = []
        if phi.dim != aleph.dim:
            return ("dimension mismatch",)
        jmat = build_jordan(aleph).matrix
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
    raise TypeError(f"not an automorphism datum: {type(phi).__name__}")


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
    InvalidAutomorphism for a ten-parameter datum on a group that is not a
    Heisenberg extension, or of another dimension.
    """
    if isinstance(phi, HeisAut) and (misfit := _heis_misfit(aleph, phi)):
        raise InvalidAutomorphism(misfit)
    if mode == "numeric":
        from .numeric import apply_aut_numeric, element_numeric

        v, t = element_numeric(g)
        return apply_aut_numeric(aleph, phi, v, t)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(phi, InnerAut):
        if phi.aleph != aleph:
            raise InvalidAutomorphism(
                "inner automorphism belongs to a different group"
            )
        return _apply_inner(aleph, phi, g)
    if isinstance(phi, HeisAut):
        return _apply_heis(aleph, phi, g)
    if isinstance(phi, GenericAut):
        scaled_t = g.t * phi.alpha
        integral = apply_exp_integral(aleph, scaled_t, phi.gamma)
        moved = vec_add(
            vec_scale(Fraction(1, 1) / phi.alpha, integral),
            mat_vec(phi.delta, g.v),
        )
        return group_element(aleph, moved, scaled_t)
    raise TypeError(f"not an automorphism datum: {type(phi).__name__}")


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


def _apply_heis(aleph, phi: HeisAut, g: GroupElement) -> GroupElement:
    x, y = g.v[0], g.v[1]
    w = g.v[2:]
    t = g.t
    half = Fraction(1, 2)
    new_x = (
        phi.invariant * x
        + phi.delta12 * y
        + phi.gamma1 * t
        + phi.beta2 * phi.gamma2 * t * y
        + phi.alpha * phi.gamma2 * t * t * half
        + phi.delta22 * phi.beta2 * y * y * half
        + sum((c * wi for c, wi in zip(phi.phi01, w)), ZERO)
    )
    new_y = phi.delta22 * y + phi.gamma2 * t
    new_w = tuple(
        phi.eta[i] * y
        + phi.rho[i] * t
        + sum((phi.phi11[i][j] * w[j] for j in range(len(w))), ZERO)
        for i in range(len(w))
    )
    new_t = phi.beta2 * y + phi.alpha * t
    return group_element(aleph, (new_x, new_y) + new_w, new_t)


# ---------------------------------------------------------------------------
# composition, inversion, differentials


def inner_as_generic(aleph: MultiplicityFunction, phi: InnerAut) -> GenericAut:
    """Generic form (Delta, gamma, alpha) = (e^{sJ}, -J u, 1) of an inner
    automorphism; exact only where e^{sJ} has a closed form."""
    delta = block_exp(phi.s, aleph)
    jmat = build_jordan(aleph).matrix
    gamma = tuple(-c for c in mat_vec(jmat, phi.u))
    return GenericAut(delta, gamma, 1)


def embed_generic(phi: GenericAut) -> HeisAut:
    """Rewrite a generic datum on a Heisenberg extension as the beta2 = 0
    member of the ten-parameter family.

    Raises InvalidAutomorphism when delta does not have the block pattern
    forced by Delta J = alpha J Delta on such a datum.
    """
    d = phi.dim
    delta = phi.delta
    for i in range(1, d):
        if not delta[i][0].is_zero:
            raise InvalidAutomorphism(
                "delta does not preserve the derived direction"
            )
    for j in range(2, d):
        if not delta[1][j].is_zero:
            raise InvalidAutomorphism("delta mixes y into the split factor")
    expected = phi.alpha * delta[1][1]
    if delta[0][0] != expected:
        raise InvalidAutomorphism("Delta J != alpha J Delta")
    return HeisAut(
        alpha=phi.alpha,
        beta2=0,
        gamma1=phi.gamma[0],
        gamma2=phi.gamma[1],
        delta12=delta[0][1],
        delta22=delta[1][1],
        phi01=delta[0][2:],
        eta=tuple(delta[i][1] for i in range(2, d)),
        rho=phi.gamma[2:],
        phi11=tuple(row[2:] for row in delta[2:]),
    )


def _heis_differential(phi: HeisAut) -> Matrix:
    """Differential in the package coordinate order (x, y, w..., t)."""
    d = phi.dim
    n = len(phi.phi01)
    rows = [[ZERO] * (d + 1) for _ in range(d + 1)]
    rows[0][0] = phi.invariant
    rows[0][1] = phi.delta12
    for j in range(n):
        rows[0][2 + j] = phi.phi01[j]
    rows[0][d] = phi.gamma1
    rows[1][1] = phi.delta22
    rows[1][d] = phi.gamma2
    for i in range(n):
        rows[2 + i][1] = phi.eta[i]
        for j in range(n):
            rows[2 + i][2 + j] = phi.phi11[i][j]
        rows[2 + i][d] = phi.rho[i]
    rows[d][1] = phi.beta2
    rows[d][d] = TauScalar(phi.alpha)
    return tuple(tuple(row) for row in rows)


def _heis_from_differential(matrix: Matrix) -> HeisAut:
    d = len(matrix) - 1
    n = d - 2
    alpha = matrix[d][d]
    if not alpha.is_rational:
        raise InvalidAutomorphism("alpha must be rational")
    return HeisAut(
        alpha=alpha.as_rational(),
        beta2=matrix[d][1],
        gamma1=matrix[0][d],
        gamma2=matrix[1][d],
        delta12=matrix[0][1],
        delta22=matrix[1][1],
        phi01=matrix[0][2 : 2 + n],
        eta=tuple(matrix[2 + i][1] for i in range(n)),
        rho=tuple(matrix[2 + i][d] for i in range(n)),
        phi11=tuple(row[2 : 2 + n] for row in matrix[2 : 2 + n]),
    )


def differential(aleph: MultiplicityFunction, phi) -> Matrix:
    """(d+1) x (d+1) derivative at the identity, coordinates (v..., t)."""
    if isinstance(phi, InnerAut):
        return differential(aleph, inner_as_generic(aleph, phi))
    if isinstance(phi, HeisAut):
        return _heis_differential(phi)
    if isinstance(phi, GenericAut):
        d = phi.dim
        rows = []
        for i in range(d):
            rows.append(tuple(phi.delta[i]) + (phi.gamma[i],))
        rows.append((ZERO,) * d + (TauScalar(phi.alpha),))
        return tuple(rows)
    raise TypeError(f"not an automorphism datum: {type(phi).__name__}")


def compose(phi1, phi2, aleph: MultiplicityFunction = None):
    """Automorphism phi1 after phi2; mixed cases embed into the wider family.

    Inner elements compose into inner elements of the product; composing an
    inner with a parameter family needs aleph to expand the inner datum.
    """
    if isinstance(phi1, InnerAut) and isinstance(phi2, InnerAut):
        if phi1.aleph != phi2.aleph:
            raise InvalidAutomorphism("inner automorphisms of different groups")
        product = group_mul(
            phi1.aleph, phi1.element, phi2.element
        )
        return inner_aut(phi1.aleph, product)
    if isinstance(phi1, InnerAut) or isinstance(phi2, InnerAut):
        inner = phi1 if isinstance(phi1, InnerAut) else phi2
        if aleph is None:
            aleph = inner.aleph
        if isinstance(phi1, InnerAut):
            phi1 = inner_as_generic(aleph, phi1)
        else:
            phi2 = inner_as_generic(aleph, phi2)
    if isinstance(phi1, HeisAut) or isinstance(phi2, HeisAut):
        if isinstance(phi1, GenericAut):
            phi1 = embed_generic(phi1)
        if isinstance(phi2, GenericAut):
            phi2 = embed_generic(phi2)
        product = mat_mul(_heis_differential(phi1), _heis_differential(phi2))
        return _heis_from_differential(product)
    return GenericAut(
        mat_mul(phi1.delta, phi2.delta),
        vec_add(
            mat_vec(phi1.delta, phi2.gamma),
            vec_scale(phi2.alpha, phi1.gamma),
        ),
        phi1.alpha * phi2.alpha,
    )


def invert(phi, aleph: MultiplicityFunction = None):
    """Inverse automorphism within the same family."""
    if isinstance(phi, InnerAut):
        g = group_inverse(phi.aleph, phi.element)
        return inner_aut(phi.aleph, g)
    if isinstance(phi, HeisAut):
        return _heis_from_differential(inverse(_heis_differential(phi)))
    if isinstance(phi, GenericAut):
        delta_inv = inverse(phi.delta)
        gamma = vec_scale(
            -Fraction(1, 1) / phi.alpha, mat_vec(delta_inv, phi.gamma)
        )
        return GenericAut(delta_inv, gamma, Fraction(1, 1) / phi.alpha)
    raise TypeError(f"not an automorphism datum: {type(phi).__name__}")


# ---------------------------------------------------------------------------
# lattice preservation


def preserves_lattice(aleph: MultiplicityFunction, phi, subgroup):
    """Integer change-of-basis certificate for phi(N) = N, or None.

    The generators of a central lattice live in ker J x T, where the
    automorphism action is exact; the certificate A expresses each image
    in the generator basis and must be unimodular.
    """
    image = DiscreteCentralSubgroup(
        aleph, tuple(apply_aut(aleph, phi, g) for g in subgroup.generators)
    )
    coords = integer_coordinates(subgroup, image.columns())
    if coords is None:
        return None
    matrix = tuple(zip(*coords))
    if not is_unimodular(matrix):
        return None
    return matrix
