"""Faithful matrix representations of almost Abelian groups and algebras.

Entries of a represented matrix live in the field of rational functions of
tau together with finitely many transcendental atoms of the shape
``coeff * exp(a) * cos(b)`` (or ``sin``).  An atom collapses to an exact
field element whenever its arguments allow it (zero exponent, quarter-turn
trigonometric argument), so nilpotent data and torsion times produce fully
exact matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import ExactnessUnavailable, UnsupportedLattice
from .expmap import (
    ExpAtom,
    block_factors,
    exp_rotation,
    make_entry,
    torsion,
    write_exp_block,
)
from .jordan import GroupElement, MultiplicityFunction, build_jordan, group_element
from .linalg import (
    Matrix,
    from_columns,
    inverse,
    mat_mul,
    mat_vec,
    pivot_columns,
    solve,
    unit_vec,
    vec,
    vec_is_zero,
    vec_sub,
)
from .scalars import ONE, TAU, ZERO, TauScalar, tau_floor


# ---------------------------------------------------------------------------
# represented matrices


@dataclass(frozen=True)
class RepMatrix:
    """A square matrix whose entries are exact scalars or ExpAtom values."""

    entries: tuple

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @property
    def is_exact(self) -> bool:
        return all(
            isinstance(e, TauScalar) for row in self.entries for e in row
        )

    @property
    def is_identity(self) -> bool:
        if not self.is_exact:
            return False
        n = self.dimension
        return all(
            self.entries[i][j] == (ONE if i == j else ZERO)
            for i in range(n)
            for j in range(n)
        )

    def exact(self) -> Matrix:
        """Return the entries as a plain exact matrix.

        Raises ExactnessUnavailable when a transcendental atom survives.
        """
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if isinstance(e, ExpAtom):
                    raise ExactnessUnavailable(
                        f"entry ({i}, {j}) = {e} has no exact value"
                    )
        return self.entries

    def numeric(self):
        """The entries in floats, as a numpy array."""
        from .numeric import rep_matrix_numeric

        return rep_matrix_numeric(self)

    def mul(self, other: "RepMatrix") -> "RepMatrix":
        """Exact matrix product; defined only when both factors are exact."""
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        return RepMatrix(mat_mul(self.exact(), other.exact()))

    def row_strings(self) -> list:
        return [" ".join(str(e) for e in row) for row in self.entries]

    def __str__(self) -> str:
        return "\n".join(self.row_strings())


def _grid(n: int) -> list:
    return [[ZERO] * n for _ in range(n)]


def _freeze(rows) -> RepMatrix:
    return RepMatrix(tuple(tuple(row) for row in rows))


# ---------------------------------------------------------------------------
# algebra and group representations


def algebra_rep(aleph: MultiplicityFunction, x) -> RepMatrix:
    """(d+1)-dimensional faithful algebra representation [[0, 0], [v, tJ]]."""
    d = aleph.dim
    jmat = build_jordan(aleph)
    rows = _grid(d + 1)
    for i in range(d):
        rows[i + 1][0] = x.v[i]
        for j in range(d):
            rows[i + 1][j + 1] = x.t * jmat[i][j]
    return _freeze(rows)


def write_group_rep(rows, aleph: MultiplicityFunction, kind: str, v, t, one, factors, exp) -> None:
    """Write representation kind of [v, t] into the zeroed square grid rows.

    G is [[1, 0], [v, e^{tJ}]], e^{tJ} from the blocks' factors(block, t);
    GI adds the corner exp(t), and GII the corner row (t, 0, ..., 0, 1).
    Entries are exact or floats: this is the one place the layout is written.
    """
    d = aleph.dim
    rows[0][0] = one
    for i in range(d):
        rows[i + 1][0] = v[i]
    for block in aleph.blocks:
        write_exp_block(rows, 1 + block.offset, block, t, *factors(block, t))
    if kind == "GI":
        rows[d + 1][d + 1] = exp(t)
    elif kind == "GII":
        rows[d + 1][0], rows[d + 1][d + 1] = t, one


def _group_rep(aleph: MultiplicityFunction, kind: str, g: GroupElement) -> RepMatrix:
    rows = _grid(aleph.dim + (1 if kind == "G" else 2))
    write_group_rep(rows, aleph, kind, g.v, g.t, ONE, block_factors, partial(make_entry, ONE))
    return _freeze(rows)


def group_rep_G(aleph: MultiplicityFunction, g: GroupElement) -> RepMatrix:
    """(d+1)-dimensional representation [[1, 0], [v, e^{tJ}]].

    Faithful exactly when G is simply connected; in general its kernel is
    the central subgroup {0} x T.
    """
    return _group_rep(aleph, "G", g)


def group_rep_GI(aleph: MultiplicityFunction, g: GroupElement) -> RepMatrix:
    """(d+2)-dimensional faithful representation with corner entry e^t."""
    return _group_rep(aleph, "GI", g)


def group_rep_GII(aleph: MultiplicityFunction, g: GroupElement) -> RepMatrix:
    """(d+2)-dimensional faithful representation with corner row entry t."""
    return _group_rep(aleph, "GII", g)


def is_simply_connected_G(aleph: MultiplicityFunction) -> bool:
    """True when exp is a diffeomorphism candidate domain-wise: T = {0}."""
    return torsion(aleph).is_trivial


# ---------------------------------------------------------------------------
# splitting off the maximal Euclidean factor


@dataclass(frozen=True)
class Decomposition:
    """Splitting G = G_0 x R^{d-d_0} along the trivial Jordan blocks.

    d0 is the dimension of the core factor; abelian_coordinates lists the
    coordinates spanning the split Euclidean factor (always the trailing
    ones in canonical block order); core_aleph is the multiplicity function
    of the core.
    """

    d0: int
    abelian_coordinates: tuple
    core_aleph: MultiplicityFunction


def decompose(aleph: MultiplicityFunction) -> Decomposition:
    """Split off the R^{d-d_0} factor spanned by the (0, 1) Jordan blocks.

    >>> from .jordan import multiplicity_function
    >>> from .scalars import GaussRational
    >>> dec = decompose(multiplicity_function(
    ...     {(GaussRational(0, 1), 1): 1, (GaussRational(0, 0), 1): 2}))
    >>> dec.d0, dec.abelian_coordinates
    (2, (2, 3))
    """
    abelian = aleph.abelian_coordinates
    core_entries = {
        (eig, size): mult
        for eig, size, mult in aleph.entries
        if not (eig.is_zero and size == 1)
    }
    return Decomposition(
        d0=aleph.dim - len(abelian),
        abelian_coordinates=abelian,
        core_aleph=MultiplicityFunction(core_entries),
    )


# ---------------------------------------------------------------------------
# quotient charts and faithful representations of G/N


def quotient_chart(aleph: MultiplicityFunction, g: GroupElement, subgroup) -> GroupElement:
    """Canonical representative of g modulo the discrete central subgroup.

    The subgroup is central, so g N consists of the translates of g by the
    generator lattice; the representative subtracts the floor of each exact
    lattice coordinate.  Coordinates outside the lattice span pass through
    unchanged, and the chart is idempotent.
    """
    cols = subgroup.columns
    if not cols:
        return g  # a combination of no columns has no height to subtract
    # pivot coordinates: the first coordinates on which the generators
    # are independent, where the lattice coordinates are read off
    pivots = pivot_columns(cols)
    point = tuple(g.v) + (g.t,)
    lattice = from_columns(cols)
    coords = solve(tuple(lattice[i] for i in pivots), vec(point[i] for i in pivots))
    reduced = vec_sub(point, mat_vec(lattice, vec(tau_floor(c) for c in coords)))
    return group_element(aleph, reduced[:-1], reduced[-1])


def build_P(aleph: MultiplicityFunction, subgroup):
    """Inverse of a completed generator matrix on the (w, t) coordinates.

    The subgroup generators, written in the coordinates of the split
    Euclidean factor together with t, form the first k columns; the first
    standard basis vectors independent of them supply the remaining m - k.
    Returns (P, P_par, P_perp): the full inverse, its first k rows, and the
    rest.
    """
    dec = decompose(aleph)
    d = aleph.dim
    d0 = dec.d0
    m = d - d0 + 1
    for g in subgroup.generators:
        if not vec_is_zero(g.v[:d0]):
            raise UnsupportedLattice(
                f"generator {g} is not supported on the split Euclidean "
                "factor; normalize the subgroup first"
            )
    cols = [col[d0:] for col in subgroup.columns]
    k = len(cols)
    # the first standard basis vectors independent of the generators:
    # the pivot columns past k of [C | id]
    augmented = tuple(
        tuple(c[i] for c in cols) + unit_vec(m, i) for i in range(m)
    )
    completion = [
        unit_vec(m, p - k) for p in pivot_columns(augmented) if p >= k
    ]
    if k + len(completion) != m:
        raise ValueError("subgroup generators are linearly dependent")
    p = inverse(from_columns(cols + completion))
    return p, p[:k], p[k:]


@dataclass(frozen=True)
class QuotientRep:
    """Faithful representation of G/N for a discrete central subgroup N.

    Block diagonal: the affine core block [[1, 0], [v0, e^{tJ0}]], one 2x2
    rotation cell per lattice generator (angle tau times the corresponding
    P_par coordinate), and one diagonal exponential per complementary
    P_perp coordinate.  The kernel is exactly N.
    numeric.quotient_rep_numeric evaluates it at float coordinate data.
    """

    aleph: MultiplicityFunction
    subgroup: object
    decomposition: Decomposition
    p_par: Matrix
    p_perp: Matrix
    dimension: int

    def matrix(self, g: GroupElement) -> RepMatrix:
        g = group_element(self.aleph, g.v, g.t)
        dec = self.decomposition
        wt = vec(tuple(g.v[dec.d0 :]) + (g.t,))
        rows = _grid(self.dimension)
        write_group_rep(rows, dec.core_aleph, "G", g.v[: dec.d0], g.t, ONE, block_factors, None)
        turns = [exp_rotation(ZERO, TAU * x) for x in mat_vec(self.p_par, wt)]
        exps = [make_entry(ONE, y) for y in mat_vec(self.p_perp, wt)]
        write_quotient_cells(rows, dec.d0 + 1, turns, exps)
        return _freeze(rows)


def write_quotient_cells(rows, o: int, turns, exps) -> None:
    """Write the cells of a QuotientRep after its core, from (o, o) on: a
    rotation cell [[c, -s], [s, c]] for each pair (c, s) in turns, then
    the entries exps down the diagonal.  Entries are exact or floats."""
    for c, s in turns:
        rows[o][o : o + 2] = c, -s
        rows[o + 1][o : o + 2] = s, c
        o += 2
    for i, e in enumerate(exps, o):
        rows[i][i] = e


def quotient_faithful_rep(aleph: MultiplicityFunction, subgroup) -> QuotientRep:
    """Representation of G whose kernel is exactly the given central subgroup.

    Requires the subgroup generators to be supported on the split Euclidean
    factor (raises UnsupportedLattice otherwise).  With k generators the
    representation acts on dimension d + 2 + k.
    """
    dec = decompose(aleph)
    _, p_par, p_perp = build_P(aleph, subgroup)
    k = len(p_par)
    return QuotientRep(
        aleph=aleph,
        subgroup=subgroup,
        decomposition=dec,
        p_par=tuple(p_par),
        p_perp=tuple(p_perp),
        dimension=aleph.dim + 2 + k,
    )
