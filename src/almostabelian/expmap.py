"""Closed-form exponential machinery and spectral decision procedures.

Covers the phi function phi(A) = (e^A - id)/A with phi(0) = id, block
exponentials e^{tJ}, the group law [v, s][w, t] = [v + e^{sJ}w, s + t],
the group exponential exp(v, t) = [phi(tJ)v, t], the
logarithm on the central cylinder, the torsion subgroup T of times t with
e^{tJ} = id, exponentiality of the group, the dilation group of the datum,
and the center.

Every e^{tJ} here, exact, symbolic or in floats, comes from one per-block
kernel: block_factors decides the block's factors c = e^{ta} cos(tb) and
s = e^{ta} sin(tb) once, and write_exp_block lays out the cells
t^j/j! * c, with [[c, -s], [s, c]] on realified blocks.  By Niven's theorem
the factors are exact only for a = 0 at a quarter turn tb in (tau/4)Z
(t = 0 included), so exact arithmetic is per block: a block contributes
exactly when it is nilpotent (finite series), or at such a time, or when
the vector being moved vanishes on the block.  Anything else raises
ExactnessUnavailable naming the block; it never falls back to floats.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ExactnessUnavailable, NotCentral, NoWitness
from .jordan import (
    AlgebraElement,
    Block,
    GroupElement,
    MultiplicityFunction,
    block_matrix,
    in_kernel,
    kernel_basis,
    numeric_mode,
    write_blocks,
)
from .linalg import (
    Matrix,
    Vector,
    identity,
    inverse,
    mat,
    mat_mul,
    mat_vec,
    unit_vec,
    vec,
    vec_add,
    vec_is_zero,
    vec_scale,
)
from .scalars import ONE, TAU, ZERO, GaussRational, TauScalar, as_tau, rat_gcd, tau_coefficient


# ---------------------------------------------------------------------------
# torsion and center


@dataclass(frozen=True)
class TorsionDescription:
    """The subgroup T = {t : e^{tJ} = id} of the time axis.

    Nontrivial exactly when every block has size 1 and a purely imaginary
    (or zero) eigenvalue, with at least one nonzero; then T = t0*Z with
    t0 = tau/omega0 and omega0 the rational gcd of the imaginary parts.
    """

    is_trivial: bool
    omega0: Fraction | None = None
    t0: TauScalar | None = None

    def multiple(self, t):
        """The integer m with t = m*t0, or None when t is not in T.

        t0 = tau/omega0, so m = c*omega0 for t = c*tau, read off t's
        coefficients with no division.
        """
        c = tau_coefficient(as_tau(t))
        if c == 0:
            return 0
        if c is None or self.is_trivial:
            return None
        m = c * self.omega0
        return m.numerator if m.denominator == 1 else None

    def contains(self, t) -> bool:
        return self.multiple(t) is not None

    def __str__(self):
        if self.is_trivial:
            return "{0}"
        return f"({self.t0})Z"


@lru_cache(maxsize=None)
def torsion(aleph: MultiplicityFunction) -> TorsionDescription:
    """Compute T for the datum.

    >>> from .jordan import multiplicity_function
    >>> from .scalars import GaussRational as G
    >>> from fractions import Fraction as F
    >>> mix = multiplicity_function({(G(0, F(2, 3)), 1): 1, (G(0, 1), 1): 1})
    >>> t = torsion(mix)
    >>> (t.omega0, str(t.t0))
    (Fraction(1, 3), '3*tau')
    """
    ims = []
    for eig, size, _ in aleph.entries:
        if size != 1 or eig.re != 0:
            return TorsionDescription(True)
        if eig.im != 0:
            ims.append(abs(eig.im))
    if not ims:
        return TorsionDescription(True)
    omega0 = ims[0]
    for b in ims[1:]:
        omega0 = rat_gcd(omega0, b)
    return TorsionDescription(False, omega0, TAU / as_tau(omega0))


@dataclass(frozen=True)
class CenterDescription:
    """Z(G) = {[u, s] : u in ker J, s in T}; identity component exp(ker J) x {0}."""

    aleph: MultiplicityFunction
    kernel_basis: tuple
    torsion: TorsionDescription

    def contains(self, g: GroupElement) -> bool:
        return in_kernel(self.aleph, g.v) and self.torsion.contains(g.t)


def center(aleph: MultiplicityFunction) -> CenterDescription:
    return CenterDescription(aleph, kernel_basis(aleph), torsion(aleph))


def is_central(aleph: MultiplicityFunction, g: GroupElement) -> bool:
    return center(aleph).contains(g)


# ---------------------------------------------------------------------------
# entries: exact scalars or transcendental atoms

_COS_QUARTER = (ONE, ZERO, -ONE, ZERO)
_SIN_QUARTER = (ZERO, ONE, ZERO, -ONE)
_QUARTER_TURN = TAU / 4


@dataclass(frozen=True)
class ExpAtom:
    """A single transcendental entry coeff * e^exp_arg * trig(trig_arg).

    trig is one of "one", "cos", "sin".  Instances are only created through
    make_entry and exp_rotation, which guarantee coeff != 0 and that no
    exact collapse applies, so structural equality of atoms is meaningful.
    numeric.entry_numeric evaluates one in floats.
    """

    coeff: TauScalar
    exp_arg: TauScalar
    trig: str = "one"
    trig_arg: TauScalar = ZERO

    def __mul__(self, scalar):
        """The atom scaled by an exact scalar; ZERO when the scalar is 0."""
        coeff = self.coeff * scalar
        if coeff.is_zero:
            return ZERO
        return ExpAtom(coeff, self.exp_arg, self.trig, self.trig_arg)

    def __neg__(self):
        return ExpAtom(-self.coeff, self.exp_arg, self.trig, self.trig_arg)

    def __str__(self) -> str:
        coeff_str = str(self.coeff)
        if coeff_str == "1":
            parts = []
        elif coeff_str == "-1":
            parts = ["-1"]
        elif "+" in coeff_str or "-" in coeff_str[1:] or "*" in coeff_str:
            parts = [f"({coeff_str})"]
        else:
            parts = [coeff_str]
        if not self.exp_arg.is_zero:
            parts.append(f"exp({self.exp_arg})")
        if self.trig != "one":
            parts.append(f"{self.trig}({self.trig_arg})")
        return "*".join(parts)


def exp_rotation(exp_arg: TauScalar, angle: TauScalar):
    """The pair (e^x cos(theta), e^x sin(theta)) for x = exp_arg, theta = angle.

    The quarter-turn rule is decided once for the pair: at theta in
    (tau/4)Z the trigonometric factors are 0 and +-1, so the pair is exact
    when x = 0.  By Niven's theorem quarter turns are the only rational
    multiples of tau where cos and sin are both rational; elsewhere both
    stay atoms, with the angle's sign normalized (cos is even, sin odd).
    """
    quarters = angle / _QUARTER_TURN
    if quarters.is_integer:
        q = quarters.as_integer() % 4
        return make_entry(_COS_QUARTER[q], exp_arg), make_entry(_SIN_QUARTER[q], exp_arg)
    if angle.leading_sign() < 0:
        angle = -angle
        return ExpAtom(ONE, exp_arg, "cos", angle), ExpAtom(-ONE, exp_arg, "sin", angle)
    return ExpAtom(ONE, exp_arg, "cos", angle), ExpAtom(ONE, exp_arg, "sin", angle)


def make_entry(coeff, exp_arg):
    """The entry coeff * e^exp_arg, an exact scalar whenever possible;
    exp_rotation builds the trigonometric entries."""
    coeff = as_tau(coeff)
    exp_arg = as_tau(exp_arg)
    if coeff.is_zero:
        return ZERO
    if exp_arg.is_zero:
        return coeff
    return ExpAtom(coeff, exp_arg)


# ---------------------------------------------------------------------------
# the block exponential kernel


def block_factors(block: Block, t: TauScalar):
    """The factors c = e^{ta} cos(tb) and s = e^{ta} sin(tb) of the block's
    eigenvalue a + ib at time t, as entries (s = 0 on a real block).

    Both are exact scalars exactly when t*a = 0 and t*b is a quarter turn
    (t = 0 included); otherwise at least one is an ExpAtom.
    """
    a, b = block.eigenvalue.re, block.eigenvalue.im
    exp_arg = t * a if a else ZERO
    if not b:
        return make_entry(ONE, exp_arg), ZERO
    return exp_rotation(exp_arg, t * b)


def write_exp_block(rows, o: int, block: Block, t, c, s) -> None:
    """Write e^{t J_block} into rows at (o, o) from the block's factors.

    Cell (k, k + j) is t^j/j! times c on a real block and times
    [[c, -s], [s, c]] on a realified one.  t, c and s are exact scalars
    and atoms, or floats in numeric mode: this is the one place the
    layout is written.
    """
    n = block.size
    base = ((c, -s), (s, c)) if block.realified else ((c,),)
    m = len(base)
    cell = base
    for j in range(n):
        if j:
            w = t if j == 1 else w * t / j
            cell = tuple(tuple(x * w for x in row) for row in base)
        for k in range(n - j):
            col = o + m * (k + j)
            for i in range(m):
                rows[o + m * k + i][col : col + m] = cell[i]


def _unavailable(block: Block, t: TauScalar, what: str) -> ExactnessUnavailable:
    return ExactnessUnavailable(
        f"no exact closed form for {what} at t = {t} on block "
        f"({block.eigenvalue}, {block.size}) at coordinate {block.offset}; "
        "exact evaluation needs a nilpotent block, a quarter turn, "
        "or a vector vanishing there"
    )


def _exact_factors(block: Block, t: TauScalar, what: str):
    """The block's factors, or ExactnessUnavailable naming the block when
    an atom survives."""
    c, s = block_factors(block, t)
    if isinstance(c, ExpAtom) or isinstance(s, ExpAtom):
        raise _unavailable(block, t, what)
    return c, s


def _exp_block(block: Block, t: TauScalar):
    """Rows of e^{t J_block}."""
    rows = [[ZERO] * block.width for _ in range(block.width)]
    write_exp_block(rows, 0, block, t, *_exact_factors(block, t, "e^(tJ)"))
    return rows


def _phi_block(block: Block, t: TauScalar):
    """Rows of phi(t J_block): the polynomial sum of (tN)^j/(j+1)! on a
    nilpotent block, (e^{tJ} - id)(tJ)^{-1} on every other block."""
    n, w = block.size, block.width
    if t.is_zero:
        return identity(w)
    rows = [[ZERO] * w for _ in range(w)]
    if block.eigenvalue.is_zero:
        for k in range(n):
            for j in range(n - k):
                rows[k][k + j] = t ** j / math.factorial(j + 1)
        return rows
    c, s = _exact_factors(block, t, "phi(tJ)")
    if n == 1 and c == ONE and s.is_zero:
        return rows  # e^{tJ} = id on the block
    write_exp_block(rows, 0, block, t, c, s)
    for i in range(w):
        rows[i][i] = rows[i][i] - ONE
    tj = [[t * x for x in row] for row in block_matrix(block)]
    return mat_mul(rows, inverse(tj))


def _assemble(aleph: MultiplicityFunction, t: TauScalar, block_fn) -> Matrix:
    d = aleph.dim
    rows = [[ZERO] * d for _ in range(d)]
    write_blocks(rows, aleph, lambda block: block_fn(block, t))
    return mat(rows)


def _apply_blockwise(aleph: MultiplicityFunction, t: TauScalar, v: Vector, block_fn) -> Vector:
    """Apply the blockwise matrix to v, skipping blocks where v vanishes."""
    out = list(v)
    for block in aleph.blocks:
        cells = slice(block.offset, block.offset + block.width)
        if not vec_is_zero(v[cells]):
            out[cells] = mat_vec(block_fn(block, t), v[cells])
    return tuple(out)


def apply_exp_tj(aleph: MultiplicityFunction, t, v) -> Vector:
    """Exact e^{tJ} v, defined blockwise wherever v meets an exact block."""
    return _apply_blockwise(aleph, as_tau(t), vec(v), _exp_block)


def apply_phi_tj(aleph: MultiplicityFunction, t, v) -> Vector:
    """Exact phi(tJ) v, defined blockwise wherever v meets an exact block."""
    return _apply_blockwise(aleph, as_tau(t), vec(v), _phi_block)


def apply_exp_integral(aleph: MultiplicityFunction, s, v) -> Vector:
    """Exact ((e^{sJ} - id)/J) v = s*phi(sJ) v, the displacement integral."""
    s = as_tau(s)
    return vec_scale(s, apply_phi_tj(aleph, s, v))


def group_mul(
    aleph: MultiplicityFunction,
    g: GroupElement,
    h: GroupElement,
    mode: str = "exact",
):
    """Product [v_g, t_g][v_h, t_h] = [v_g + e^{t_g J} v_h, t_g + t_h].

    Exact mode requires e^{t_g J} v_h to have a closed form in Q(tau): per
    block, the block is nilpotent, or t_g is a quarter turn of a rotation
    block (or 0), or v_h vanishes on the block.  Otherwise
    ExactnessUnavailable is raised naming the first offending block.
    """
    if numeric_mode(mode):
        from .numeric import block_exp_numeric, element_numeric

        vg, tg = element_numeric(g)
        vh, th = element_numeric(h)
        return vg + block_exp_numeric(aleph, tg) @ vh, tg + th
    moved = apply_exp_tj(aleph, g.t, h.v)
    return GroupElement(vec_add(g.v, moved), g.t + h.t)


def group_inverse(aleph: MultiplicityFunction, g: GroupElement) -> GroupElement:
    """Inverse [v, t]^{-1} = [-e^{-t J} v, -t], same exactness domain as mul;
    numeric.group_inverse_numeric is the float form.

    >>> from .jordan import group_element, multiplicity_function
    >>> heis = multiplicity_function({(GaussRational(0), 2): 1})
    >>> str(group_inverse(heis, group_element(heis, [4, 2], 3)))
    '[2, -2 | -3]'
    """
    moved = apply_exp_tj(aleph, -g.t, g.v)
    return GroupElement(tuple(-x for x in moved), -g.t)


def block_exp(t, aleph: MultiplicityFunction) -> Matrix:
    """The full matrix e^{tJ}.

    Exact for nilpotent blocks at any time and rotation blocks (purely
    imaginary eigenvalue) at quarter turns, in particular all t in T;
    other blocks only at t = 0.  numeric.block_exp_numeric feeds float
    factors into the same layout.

    >>> from .jordan import multiplicity_function
    >>> from .scalars import GaussRational as G
    >>> heis = multiplicity_function({(G(0), 2): 1})
    >>> [[str(x) for x in row] for row in block_exp(1, heis)]
    [['1', '1'], ['0', '1']]
    >>> e2 = multiplicity_function({(G(0, 1), 1): 1})
    >>> [[str(x) for x in row] for row in block_exp(TAU / 4, e2)]
    [['0', '-1'], ['1', '0']]
    """
    return _assemble(aleph, as_tau(t), _exp_block)


def phi_matrix(t, aleph: MultiplicityFunction) -> Matrix:
    """The full matrix phi(tJ) = (e^{tJ} - id)/(tJ), with phi(0) = id.

    On ker J the value is the identity for every t; at a nonzero t in T
    the whole matrix collapses to the projection onto ker J (zero on the
    rotation blocks, identity on the kernel coordinates).  Its float form
    is numeric.phi_numeric.
    """
    return _assemble(aleph, as_tau(t), _phi_block)


def exp_map(aleph: MultiplicityFunction, x: AlgebraElement, mode: str = "exact"):
    """Group exponential exp(v, t) = [phi(tJ) v, t].

    >>> from .jordan import algebra_element, multiplicity_function
    >>> from .scalars import GaussRational as G
    >>> heis = multiplicity_function({(G(0), 2): 1})
    >>> str(exp_map(heis, algebra_element(heis, [1, 2], 3)))
    '[4, 2 | 3]'
    """
    if numeric_mode(mode):
        from .numeric import element_numeric, phi_numeric

        v, t = element_numeric(x)
        return phi_numeric(aleph, t) @ v, t
    return GroupElement(apply_phi_tj(aleph, x.t, x.v), x.t)


def central_log(aleph: MultiplicityFunction, g: GroupElement) -> AlgebraElement:
    """Inverse of exp on the cylinder ker J + R e0, where exp is the identity
    in coordinates: [v, t] -> (v, t) for v in ker J, any t."""
    if not in_kernel(aleph, g.v):
        raise NotCentral(
            "logarithm is only defined over ker J: the vector part has a "
            "component outside the kernel coordinates"
        )
    return AlgebraElement(g.v, g.t)


# ---------------------------------------------------------------------------
# exponentiality


@dataclass(frozen=True)
class ExponentialityVerdict:
    exponential: bool
    witness: GaussRational | None = None


@dataclass(frozen=True)
class E2Witness:
    """A copy of the universal cover of E(2) inside the group.

    W is the 2-dimensional invariant subspace carrying the first purely
    imaginary rotation block; together with the time direction it spans a
    subalgebra on which exp already fails to be surjective.  At the
    collision time tau/b the phi matrix kills W, so [collision_vector,
    collision_time] and [0, collision_time] are distinct exponentials of
    nothing and of (0, collision_time) respectively.
    """

    block_index: int
    block: Block
    coordinates: tuple
    restriction: Matrix
    collision_time: TauScalar
    collision_vector: Vector


def is_exponential(aleph: MultiplicityFunction) -> ExponentialityVerdict:
    """exp is onto iff no eigenvalue is nonzero purely imaginary."""
    for eig, _, _ in aleph.entries:
        if eig.re == 0 and eig.im != 0:
            return ExponentialityVerdict(False, eig)
    return ExponentialityVerdict(True)


def e2_witness(aleph: MultiplicityFunction) -> E2Witness:
    """The first rotation block witnessing non-exponentiality.

    >>> from .jordan import multiplicity_function
    >>> from .scalars import GaussRational as G
    >>> w = e2_witness(multiplicity_function({(G(0, 1), 1): 1}))
    >>> (w.coordinates, [[str(x) for x in r] for r in w.restriction])
    ((0, 1), [['0', '-1'], ['1', '0']])
    """
    for index, block in enumerate(aleph.blocks):
        eig = block.eigenvalue
        if eig.re == 0 and eig.im != 0:
            b = eig.im
            return E2Witness(
                block_index=index,
                block=block,
                coordinates=(block.offset, block.offset + 1),
                restriction=tuple(row[:2] for row in block_matrix(block)[:2]),
                collision_time=TAU / as_tau(b),
                collision_vector=unit_vec(aleph.dim, block.offset),
            )
    raise NoWitness("the group is exponential; no rotation block to exhibit")


# ---------------------------------------------------------------------------
# dilations


class DilationGroup(enum.Enum):
    """Scalars alpha != 0 with alpha*J similar to J."""

    TRIVIAL = "{1}"
    PLUS_MINUS_ONE = "{1, -1}"
    ALL_NONZERO = "R\\{0}"

    def __str__(self):
        return self.value


def dilation_group(aleph: MultiplicityFunction) -> DilationGroup:
    """All nonzero reals for nilpotent J; {1, -1} when each a + ib has its
    mirror -a + ib with the same sizes and multiplicities; {1} otherwise."""
    if aleph.is_nilpotent:
        return DilationGroup.ALL_NONZERO
    table = {(eig, size): mult for eig, size, mult in aleph.entries}
    if all(table.get((GaussRational(-e.re, e.im), n)) == m for (e, n), m in table.items()):
        return DilationGroup.PLUS_MINUS_ONE
    return DilationGroup.TRIVIAL


def dilation_contains(aleph: MultiplicityFunction, alpha) -> bool:
    alpha = as_tau(alpha)
    group = dilation_group(aleph)
    if group is DilationGroup.ALL_NONZERO:
        return not alpha.is_zero
    return alpha == ONE or (group is DilationGroup.PLUS_MINUS_ONE and alpha == -ONE)


def dilation_conjugator(aleph: MultiplicityFunction, alpha) -> Matrix:
    """An invertible Delta with Delta J = alpha J Delta, for alpha in Dil.

    One rule per block: the k-th block of an (eigenvalue, size) pair maps
    onto the k-th block of its mirror, and cell k of a size-n block carries
    alpha^(n-1-k), times diag(1, alpha) on a realified block.  The mirror
    of a + ib is -a + ib for alpha = -1 and the block itself otherwise;
    only alpha = +-1 reaches a realified block, as Dil is within {1, -1}
    unless J is nilpotent.
    """
    alpha = as_tau(alpha)
    if not dilation_contains(aleph, alpha):
        raise ValueError(f"{alpha} is not in the dilation group {dilation_group(aleph)}")
    by_key: dict = {}
    for block in aleph.blocks:
        by_key.setdefault((block.eigenvalue, block.size), []).append(block)
    d = aleph.dim
    rows = [[ZERO] * d for _ in range(d)]
    for (eig, n), blocks in by_key.items():
        mirror = (GaussRational(-eig.re, eig.im), n) if alpha == -ONE else (eig, n)
        for source, target in zip(blocks, by_key[mirror]):
            for k in range(n):
                power = alpha ** (n - 1 - k)
                cells = (power, power * alpha) if source.realified else (power,)
                for i, x in enumerate(cells):
                    at = len(cells) * k + i
                    rows[target.offset + at][source.offset + at] = x
    return mat(rows)
