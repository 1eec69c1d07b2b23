"""Jordan data of real almost Abelian Lie algebras, their elements and bracket.

An almost Abelian algebra R^d x| R is determined by a multiplicity function:
finitely many (eigenvalue, block size) pairs with positive multiplicities,
describing the real Jordan normal form J of ad_{e0} restricted to R^d.
Eigenvalues are Gaussian rationals; a pair with nonzero imaginary part stands
for the conjugate pair and realifies to a 2n x 2n block.

Canonical block order: descending block size; within one size, nonzero
eigenvalues first, ascending lexicographically by (re, im), zero blocks last.
This makes the kernel-coordinate grading match the displayed block-triangular
normal form of restricted automorphisms, and puts the (0,1) blocks (the
abelian directions split off by the d0-decomposition) at the trailing
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DegenerateDatum
from .linalg import (
    Matrix,
    Vector,
    mat,
    mat_vec,
    row_space_basis,
    unit_vec,
    vec,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)
from .scalars import ZERO, GaussRational, TauScalar, as_tau

# Largest total dimension d a datum may have.  Every exact matrix is a
# dense d x d tuple of TauScalars, so a datum past this size is an input
# error rather than a computation.
MAX_DIM = 1000


@dataclass(frozen=True)
class Block:
    """One realified Jordan block in the canonical layout."""

    eigenvalue: GaussRational
    size: int
    offset: int

    @property
    def realified(self) -> bool:
        return self.eigenvalue.im != 0

    @property
    def width(self) -> int:
        return 2 * self.size if self.realified else self.size


class MultiplicityFunction:
    """Finitely supported map (eigenvalue, size) -> multiplicity.

    Eigenvalues with negative imaginary part are replaced by their conjugate
    representative.  The all-(0,1) datum is rejected: it describes an Abelian
    algebra, which is out of scope.  So is a total dimension above MAX_DIM.
    The blocks, with multiplicities unrolled and coordinate offsets in the
    canonical order, are laid out once here.

    >>> MultiplicityFunction({(GaussRational(0), 2): 1}).dim
    2
    """

    __slots__ = ("entries", "dim", "blocks")

    def __init__(self, data):
        merged = {}
        for (eig, size), mult in dict(data).items():
            if not isinstance(eig, GaussRational):
                eig = GaussRational(eig)
            if eig.im < 0:
                eig = eig.conjugate()
            if not isinstance(size, int) or size < 1:
                raise ValueError(f"block size must be a positive integer, got {size!r}")
            if not isinstance(mult, int) or mult < 1:
                raise ValueError(f"multiplicity must be a positive integer, got {mult!r}")
            key = (eig, size)
            merged[key] = merged.get(key, 0) + mult
        if not merged:
            raise DegenerateDatum("empty multiplicity function")
        if all(eig.is_zero and size == 1 for (eig, size) in merged):
            raise DegenerateDatum(
                "all blocks are (0, 1): the algebra is Abelian, not almost Abelian"
            )
        ordered = sorted(
            merged.items(),
            key=lambda item: (
                -item[0][1],
                item[0][0].is_zero,
                item[0][0].re,
                item[0][0].im,
            ),
        )
        entries = tuple((eig, size, mult) for (eig, size), mult in ordered)
        d = sum(
            mult * size * (2 if eig.im != 0 else 1) for eig, size, mult in entries
        )
        if d > MAX_DIM:
            raise ValueError(f"total dimension {d} exceeds the ceiling {MAX_DIM}")
        blocks = []
        offset = 0
        for eig, size, mult in entries:
            for _ in range(mult):
                block = Block(eig, size, offset)
                blocks.append(block)
                offset += block.width
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "blocks", tuple(blocks))

    def __setattr__(self, name, value):
        raise AttributeError("MultiplicityFunction is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, MultiplicityFunction) and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def multiplicity(self, eigenvalue, size: int) -> int:
        eig = eigenvalue if isinstance(eigenvalue, GaussRational) else GaussRational(eigenvalue)
        if eig.im < 0:
            eig = eig.conjugate()
        for e, s, m in self.entries:
            if e == eig and s == size:
                return m
        return 0

    @property
    def is_nilpotent(self) -> bool:
        return all(eig.is_zero for eig, _, _ in self.entries)

    @property
    def kernel_coordinates(self) -> tuple:
        """Coordinates spanning ker J: the top coordinate of each zero block."""
        return tuple(b.offset for b in self.blocks if b.eigenvalue.is_zero)

    @property
    def abelian_coordinates(self) -> tuple:
        """Coordinates of the (0,1) blocks (trailing in the canonical order)."""
        return tuple(
            b.offset for b in self.blocks if b.eigenvalue.is_zero and b.size == 1
        )

    def __str__(self):
        inner = ", ".join(
            f"({eig},{size}):{mult}" for eig, size, mult in self.entries
        )
        return "{" + inner + "}"

    def __repr__(self):
        return f"MultiplicityFunction({str(self)})"


def multiplicity_function(data) -> MultiplicityFunction:
    """Build a MultiplicityFunction from {(eigenvalue, size): multiplicity}."""
    return MultiplicityFunction(data)


@lru_cache(maxsize=None)
def block_matrix(block: Block) -> Matrix:
    """The block's own real Jordan matrix, width x width.

    A real block is x*id + N (ones on the superdiagonal); a complex block
    a+bi realifies to 2x2 cells [[a, -b], [b, a]] on the diagonal and 2x2
    identity cells on the superdiagonal.
    """
    n, w = block.size, block.width
    a, b = block.eigenvalue.re, block.eigenvalue.im
    cell = ((a, -b), (b, a)) if block.realified else ((a,),)
    m = len(cell)
    rows = [[Fraction(0)] * w for _ in range(w)]
    for k in range(n):
        for i in range(m):
            rows[m * k + i][m * k : m * k + m] = cell[i]
            if k + 1 < n:
                rows[m * k + i][m * (k + 1) + i] = Fraction(1)
    return mat(rows)


def write_blocks(grid, aleph: MultiplicityFunction, block_rows) -> None:
    """Write each block's rows block_rows(block) onto the diagonal of grid,
    at the block's offset.  grid is a nested list or a numpy array and
    block_rows gives exact or float rows to match: this is the one place
    per-block matrices are copied into a whole one."""
    for block in aleph.blocks:
        o = block.offset
        for i, row in enumerate(block_rows(block)):
            grid[o + i][o : o + block.width] = row


@lru_cache(maxsize=None)
def build_jordan(aleph: MultiplicityFunction) -> Matrix:
    """The block-diagonal real Jordan matrix J of the datum, assembled from
    the blocks' own matrices in the layout of aleph.blocks."""
    d = aleph.dim
    rows = [[ZERO] * d for _ in range(d)]
    write_blocks(rows, aleph, block_matrix)
    return mat(rows)


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class AlgebraElement:
    """Element (v, t) of R^d x| R with exact coordinates."""

    v: Vector
    t: TauScalar

    def __str__(self):
        return f"({', '.join(str(x) for x in self.v)} | {self.t})"


@dataclass(frozen=True)
class GroupElement:
    """Element [v, t] of the simply connected group R^d x| R, exact coordinates."""

    v: Vector
    t: TauScalar

    @property
    def is_identity(self) -> bool:
        return self.t.is_zero and vec_is_zero(self.v)

    def __str__(self):
        return f"[{', '.join(str(x) for x in self.v)} | {self.t}]"


def algebra_element(aleph: MultiplicityFunction, v, t) -> AlgebraElement:
    v = vec(v)
    if len(v) != aleph.dim:
        raise ValueError(f"expected {aleph.dim} coordinates, got {len(v)}")
    return AlgebraElement(v, as_tau(t))


def group_element(aleph: MultiplicityFunction, v, t) -> GroupElement:
    v = vec(v)
    if len(v) != aleph.dim:
        raise ValueError(f"expected {aleph.dim} coordinates, got {len(v)}")
    return GroupElement(v, as_tau(t))


def group_identity(aleph: MultiplicityFunction) -> GroupElement:
    return GroupElement(zero_vec(aleph.dim), ZERO)


def in_kernel(aleph: MultiplicityFunction, v) -> bool:
    """Whether v lies in ker J (a coordinate subspace in the canonical layout)."""
    v = vec(v)
    kernel = set(aleph.kernel_coordinates)
    return all(x.is_zero for i, x in enumerate(v) if i not in kernel)


def kernel_basis(aleph: MultiplicityFunction) -> tuple:
    """Standard basis vectors spanning ker J."""
    return tuple(unit_vec(aleph.dim, i) for i in aleph.kernel_coordinates)


# ---------------------------------------------------------------------------
# structure operations


def commutator(
    aleph: MultiplicityFunction, x: AlgebraElement, y: AlgebraElement
) -> AlgebraElement:
    """Lie bracket [(v_x, t_x), (v_y, t_y)] = (t_x J v_y - t_y J v_x, 0).

    >>> heis = multiplicity_function({(GaussRational(0), 2): 1})
    >>> x = algebra_element(heis, [0, 1], 0)
    >>> y = algebra_element(heis, [0, 0], 1)
    >>> str(commutator(heis, x, y))
    '(-1, 0 | 0)'
    """
    j = build_jordan(aleph)
    left = vec_scale(x.t, mat_vec(j, y.v))
    right = vec_scale(y.t, mat_vec(j, x.v))
    return AlgebraElement(vec_sub(left, right), ZERO)


def derived_algebra_basis(aleph: MultiplicityFunction) -> tuple:
    """Echelonized basis of [g, g] = im J (columns of J)."""
    j = build_jordan(aleph)
    cols = list(zip(*j))
    return tuple(row_space_basis([c for c in cols if not vec_is_zero(c)]))


def numeric_mode(mode: str) -> bool:
    """Whether mode is "numeric" rather than "exact"; else ValueError."""
    if mode not in ("exact", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode == "numeric"
