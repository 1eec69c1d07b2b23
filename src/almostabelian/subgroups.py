"""Connected subgroups and closedness of their images in quotients.

A connected subgroup of the simply connected group is either exp(W) for a
subspace W of the Euclidean factor, or the graph-like set
[w + (e^{tJ} - id)/J v0, t] over all w in W and real t.  Both carry over
to quotients by discrete central subgroups through the unique connected
lift, and closedness of the image is decided by comparing the span of
the lattice points inside H with the linear slice of H inside the span
of the whole lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expmap import apply_exp_integral, central_log, torsion
from .integers import kernel_complement_split
from .jordan import (
    GroupElement,
    MultiplicityFunction,
    build_jordan,
    in_kernel,
)
from .linalg import (
    from_columns,
    identity,
    in_span,
    mat_mul,
    mat_vec,
    nullspace,
    row_space_basis,
    span_intersection,
    vec,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from .scalars import ONE, ZERO, integer_rows


@dataclass(frozen=True)
class ConnectedSubgroupSpec:
    """Connected subgroup datum: a subspace basis and an optional slope.

    basis spans the subspace W; v0 is None for the purely Euclidean case
    exp(W) and the graph slope vector otherwise.
    """

    aleph: MultiplicityFunction
    basis: tuple
    v0: object

    def __init__(self, aleph, basis, v0=None):
        object.__setattr__(self, "aleph", aleph)
        object.__setattr__(self, "basis", tuple(vec(w) for w in basis))
        object.__setattr__(self, "v0", None if v0 is None else vec(v0))

    @property
    def case(self) -> int:
        return 1 if self.v0 is None else 2


def validate_subspace(aleph: MultiplicityFunction, basis) -> tuple:
    """Dimension and exact J-invariance check on a subspace basis.

    Returns a tuple of violation descriptions, empty when J W is
    contained in W.
    """
    violations = []
    d = aleph.dim
    basis = [vec(w) for w in basis]
    for w in basis:
        if len(w) != d:
            violations.append(f"basis vector has {len(w)} coordinates, expected {d}")
    if violations:
        return tuple(violations)
    j = build_jordan(aleph)
    for w in basis:
        image = mat_vec(j, w)
        if not in_span(basis, image):
            violations.append(
                f"J maps ({', '.join(str(x) for x in w)}) outside the subspace"
            )
    return tuple(violations)


def is_abelian_subalgebra(aleph: MultiplicityFunction, spec) -> bool:
    """Whether the subgroup's Lie algebra is Abelian.

    Case 1 subspaces always commute; a graph-type algebra is Abelian
    exactly when W lies in the centre of the ambient algebra, which is
    ker J inside the Euclidean factor.
    """
    if spec.case == 1:
        return True
    return all(in_kernel(aleph, w) for w in spec.basis)


def membership(aleph: MultiplicityFunction, spec: ConnectedSubgroupSpec, g: GroupElement) -> bool:
    """Whether the group element lies in the connected subgroup.

    Exact wherever the displacement integral of the slope has a closed
    rational form (always for case 1); raises ExactnessUnavailable
    otherwise.  numeric.membership_numeric is the float form.
    """
    if spec.case == 1:
        return g.t.is_zero and in_span(spec.basis, g.v)
    correction = apply_exp_integral(aleph, g.t, spec.v0)
    return in_span(spec.basis, vec_sub(g.v, correction))


def lift_subgroup(
    aleph: MultiplicityFunction, spec: ConnectedSubgroupSpec
) -> ConnectedSubgroupSpec:
    """Unique connected subgroup of the covering group over the given one.

    The quotient map is a local isomorphism, so the lift carries the
    same subspace and slope data; the operation validates and returns
    it, and is idempotent.
    """
    violations = validate_subspace(aleph, spec.basis)
    if violations:
        raise ValueError("; ".join(violations))
    return ConnectedSubgroupSpec(aleph, spec.basis, spec.v0)


# ---------------------------------------------------------------------------
# minimal connected subgroups over central sets


def _log_column(aleph, g):
    x = central_log(aleph, g)
    return vec(tuple(x.v) + (x.t,))


def bbar(aleph: MultiplicityFunction, elements) -> tuple:
    """Echelonized basis of the minimal connected subgroup containing X.

    The subgroup is exp of the real span of the central logs, a subspace
    of ker J + R returned as (v; t) rows.
    """
    logs = [_log_column(aleph, g) for g in elements]
    return tuple(row_space_basis(logs))


# ---------------------------------------------------------------------------
# lattice splitting through a connected subgroup


def _kernel_projection(aleph, v):
    kernel = set(aleph.kernel_coordinates)
    return vec(x if i in kernel else ZERO for i, x in enumerate(v))


def split_lattice_through(
    aleph: MultiplicityFunction, spec: ConnectedSubgroupSpec, subgroup
):
    """Direct decomposition N = (N cap H) x B of a central lattice.

    Membership of integer combinations in H is linear over Q(tau): over
    torsion times the rotation components of the slope integral cancel
    over full periods, leaving only the kernel projection of the slope.
    The solution set is a saturated sublattice (hence a direct factor by
    purity), and the complement comes from the same unimodular kernel
    split.
    """
    gens = subgroup.generators
    tor = torsion(aleph)
    multiples = subgroup.time_multiples
    if spec.case == 2 and not tor.is_trivial:
        slope = _kernel_projection(aleph, spec.v0)
        targets = [vec_sub(g.v, vec_scale(m * tor.t0, slope)) for g, m in zip(gens, multiples)]
    else:
        targets = [g.v for g in gens]
    # the combination lies in W exactly when every normal of W kills it;
    # nullspace reads a basis with no rows as 0 x 0, so W = 0 passes its own
    normals = nullspace(spec.basis) if spec.basis else identity(aleph.dim)
    conditions = [
        row for row in mat_mul(normals, from_columns(targets)) if not vec_is_zero(row)
    ]
    if spec.case == 1 and any(multiples):
        conditions.append(vec(multiples))
    k = len(gens)
    complement_cols, kernel_cols = kernel_complement_split(integer_rows(conditions), k)
    # the bases as k x j coefficient matrices, k rows even when j = 0
    inside, complement = (
        subgroup.combine([[c[i] for c in cols] for i in range(k)])
        for cols in (kernel_cols, complement_cols)
    )
    return inside, complement


# ---------------------------------------------------------------------------
# closedness in the quotient


def is_quotient_subgroup_closed(
    aleph: MultiplicityFunction, spec: ConnectedSubgroupSpec, subgroup
) -> bool:
    """Whether the image of H in the quotient by the lattice is closed.

    The image is closed exactly when the minimal connected subgroup over
    the lattice points inside H fills the whole slice of H inside the
    minimal connected subgroup over the lattice.  Both sides are exact
    subspaces of ker J + R: the left is the span of the logs of N cap H,
    the right intersects the linear parametrization of H with the span
    of the logs of N.
    """
    inside, _ = split_lattice_through(aleph, spec, subgroup)
    left = bbar(aleph, inside.generators)
    h_directions = [vec(tuple(w) + (ZERO,)) for w in spec.basis]
    if spec.case == 2:
        h_directions.append(vec(tuple(spec.v0) + (ONE,)))
    lattice_span = [_log_column(aleph, g) for g in subgroup.generators]
    right = span_intersection(h_directions, lattice_span)
    return list(left) == list(right)
