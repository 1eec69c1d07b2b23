"""Floating-point evaluation of the closed forms: the ``mode="numeric"``
branches of exp_map, group_mul and apply_aut, RepMatrix.numeric, and the
float forms of group_inverse, membership and QuotientRep.matrix.

Apart from the oracle this is the only module that imports numpy.  The
exact modules import it inside their numeric branches, so exact work
never loads the float stack.  The formulas are the per-block closed
forms of the exact layer evaluated in floats, not a generic matrix
exponential: the oracle's dense ``expm`` stays an independent check.
"""

from __future__ import annotations

import math

import numpy as np

from .autos import InnerAut, heis_action, is_heisenberg_extension
from .expmap import ExpAtom, write_exp_block
from .jordan import Block, MultiplicityFunction, block_matrix, write_blocks
from .reps import write_group_rep, write_quotient_cells


def _vector(entries) -> np.ndarray:
    return np.array([float(c) for c in entries], dtype=float)


def _matrix(rows, width: int) -> np.ndarray:
    """Rows of exact scalars in floats; no rows give a 0 x width matrix."""
    return np.array([[float(c) for c in row] for row in rows], dtype=float).reshape(len(rows), width)


def element_numeric(x) -> tuple:
    """Float coordinates (numpy vector, float time) of an exact element."""
    return _vector(x.v), float(x.t)


# ---------------------------------------------------------------------------
# block exponential and phi


def _float_factors(block: Block, t: float) -> tuple:
    """The kernel's block factors e^{ta} cos(tb) and e^{ta} sin(tb) in floats."""
    a, b = float(block.eigenvalue.re), float(block.eigenvalue.im)
    ea = math.exp(t * a)
    return ea * math.cos(t * b), ea * math.sin(t * b)


def block_exp_numeric(aleph: MultiplicityFunction, t: float) -> np.ndarray:
    """e^{tJ} in floats: the exact layer's block layout fed float factors."""
    d = aleph.dim
    out = np.zeros((d, d))
    for block in aleph.blocks:
        write_exp_block(out, block.offset, block, t, *_float_factors(block, t))
    return out


def _phi_block_numeric(block: Block, t: float) -> np.ndarray:
    w = block.width
    a, b = float(block.eigenvalue.re), float(block.eigenvalue.im)
    if block.eigenvalue.is_zero:
        # the finite sum (tN)^j/(j+1)!, a perf path: float exp_map on heis x R
        # takes ~25 us here and ~65 us through the series (x86-64, 2 vCPUs)
        out = np.zeros((w, w))
        for k in range(block.size):
            for j in range(block.size - k):
                out[k, k + j] = t ** j / math.factorial(j + 1)
        return out
    jb = _matrix(block_matrix(block), w)
    scale = abs(t) * math.hypot(a, b)
    if scale < 0.5:
        # series sum (tJ)^k/(k+1)!, geometric-dominated tail
        acc = np.eye(w)
        term = np.eye(w)
        k = 1
        while True:
            term = term @ (t * jb) / (k + 1)
            acc = acc + term
            if np.max(np.abs(term)) < 1e-18:
                return acc
            k += 1
    # block invertible away from zero eigenvalue: phi = (e^{tJ} - I) (tJ)^{-1}
    eb = np.zeros((w, w))
    write_exp_block(eb, 0, block, t, *_float_factors(block, t))
    return np.linalg.solve((t * jb).T, (eb - np.eye(w)).T).T


def phi_numeric(aleph: MultiplicityFunction, t: float) -> np.ndarray:
    """phi(tJ) in floats, per block: exact polynomial on nilpotent blocks,
    series for small arguments, otherwise (e^{tJ_b} - id)(tJ_b)^{-1}."""
    d = aleph.dim
    out = np.zeros((d, d))
    write_blocks(out, aleph, lambda block: _phi_block_numeric(block, t))
    return out


def group_inverse_numeric(aleph: MultiplicityFunction, v: np.ndarray, t: float):
    """Float inverse [v, t]^{-1} = [-e^{-tJ} v, -t] of coordinate data."""
    return -(block_exp_numeric(aleph, -t) @ np.asarray(v, dtype=float)), -t


# ---------------------------------------------------------------------------
# automorphism action


def apply_aut_numeric(aleph: MultiplicityFunction, phi, v: np.ndarray, t: float):
    """Floating-point action on coordinate data (v, t); the group picks
    the action as in autos.apply_aut."""
    v = np.asarray(v, dtype=float)
    if isinstance(phi, InnerAut):
        u, s = _vector(phi.u), float(phi.s)
        moved = u + block_exp_numeric(aleph, s) @ v - block_exp_numeric(aleph, t) @ u
        return moved, t
    d = aleph.dim
    m = _matrix(phi.matrix, d + 1)
    if is_heisenberg_extension(aleph):
        image = m @ np.append(v, t)
        image[0] += heis_action(m, v[1], t)
        return image[:d], image[d]
    s = m[d, d] * t
    moved = t * (phi_numeric(aleph, s) @ m[:d, d]) + m[:d, :d] @ v
    return moved, s


# ---------------------------------------------------------------------------
# representations


def entry_numeric(entry) -> float:
    """An exact scalar or an ExpAtom in floats."""
    if not isinstance(entry, ExpAtom):
        return float(entry)
    value = float(entry.coeff) * math.exp(float(entry.exp_arg))
    if entry.trig == "cos":
        value *= math.cos(float(entry.trig_arg))
    elif entry.trig == "sin":
        value *= math.sin(float(entry.trig_arg))
    return value


def rep_matrix_numeric(matrix) -> np.ndarray:
    """Float entries of a RepMatrix."""
    return np.array(
        [[entry_numeric(e) for e in row] for row in matrix.entries],
        dtype=float,
    )


def group_rep_numeric(aleph, v: np.ndarray, t: float, kind: str = "G") -> np.ndarray:
    """Float version of the group representations, for numeric probes."""
    if kind not in ("G", "GI", "GII"):
        raise ValueError(f"unknown representation kind {kind!r}")
    n = aleph.dim + (1 if kind == "G" else 2)
    out = np.zeros((n, n))
    write_group_rep(out, aleph, kind, v, t, 1.0, _float_factors, math.exp)
    return out


def quotient_rep_numeric(rep, v: np.ndarray, t: float) -> np.ndarray:
    """Float matrix of a QuotientRep at coordinate data (v, t)."""
    dec = rep.decomposition
    v = np.asarray(v, dtype=float)
    wt = np.append(v[dec.d0 :], t)
    out = np.zeros((rep.dimension, rep.dimension))
    write_group_rep(out, dec.core_aleph, "G", v[: dec.d0], t, 1.0, _float_factors, None)
    x_par = _matrix(rep.p_par, len(wt)) @ wt
    turns = [(math.cos(2 * math.pi * x), math.sin(2 * math.pi * x)) for x in x_par]
    exps = [math.exp(y) for y in _matrix(rep.p_perp, len(wt)) @ wt]
    write_quotient_cells(out, dec.d0 + 1, turns, exps)
    return out


# ---------------------------------------------------------------------------
# connected subgroups


# Largest defect norm at which a float membership test still answers yes.
MEMBERSHIP_TOL = 1e-9


def membership_numeric(aleph, spec, g) -> bool:
    """Float membership test: the defect of g against the subgroup's
    slope, least-squares projected onto its basis, within MEMBERSHIP_TOL."""
    v = _vector(g.v)
    t = float(g.t)
    if spec.case == 1:
        if abs(t) > MEMBERSHIP_TOL:
            return False
        defect = v
    else:
        v0 = _vector(spec.v0)
        defect = v - t * (phi_numeric(aleph, t) @ v0)
    w = _matrix(spec.basis, len(v)).T  # d x 0 with no basis: the residual is the defect
    coeffs, *_ = np.linalg.lstsq(w, defect, rcond=None)
    return bool(np.linalg.norm(w @ coeffs - defect) <= MEMBERSHIP_TOL)
