"""Floating-point evaluation of the closed forms, behind ``mode="numeric"``.

Apart from the oracle this is the only module that imports numpy.  The
exact modules import it inside their numeric branches, so exact work
never loads the float stack.  The formulas are the per-block closed
forms of the exact layer evaluated in floats, not a generic matrix
exponential: the oracle's dense ``expm`` stays an independent check.
"""

from __future__ import annotations

import math

import numpy as np

from .autos import GenericAut, HeisAut, InnerAut
from .expmap import ExpAtom, write_exp_block
from .jordan import Block, MultiplicityFunction, block_matrix, build_jordan

_REP_KINDS = ("G", "GI", "GII")


def element_numeric(x) -> tuple:
    """Float coordinates (numpy vector, float time) of an exact element."""
    return np.array([float(c) for c in x.v], dtype=float), float(x.t)


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
    for block in build_jordan(aleph).blocks:
        write_exp_block(out, block.offset, block, t, *_float_factors(block, t))
    return out


def _phi_block_numeric(block: Block, t: float) -> np.ndarray:
    w = block.width
    a, b = float(block.eigenvalue.re), float(block.eigenvalue.im)
    if block.eigenvalue.is_zero:
        out = np.zeros((w, w))
        for k in range(block.size):
            for j in range(block.size - k):
                out[k, k + j] = t ** j / math.factorial(j + 1)
        return out
    jb = np.array([[float(x) for x in row] for row in block_matrix(block)])
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
    for block in build_jordan(aleph).blocks:
        o, w = block.offset, block.width
        out[o : o + w, o : o + w] = _phi_block_numeric(block, t)
    return out


# ---------------------------------------------------------------------------
# automorphism action


def apply_aut_numeric(aleph: MultiplicityFunction, phi, v: np.ndarray, t: float):
    """Floating-point action on coordinate data (v, t)."""
    v = np.asarray(v, dtype=float)
    if isinstance(phi, InnerAut):
        u, s = np.array([float(c) for c in phi.u]), float(phi.s)
        moved = u + block_exp_numeric(aleph, s) @ v - block_exp_numeric(aleph, t) @ u
        return moved, t
    if isinstance(phi, HeisAut):
        alpha = float(phi.alpha)
        beta2 = float(phi.beta2)
        gamma1, gamma2 = float(phi.gamma1), float(phi.gamma2)
        delta12, delta22 = float(phi.delta12), float(phi.delta22)
        x, y, w = v[0], v[1], v[2:]
        phi01 = np.array([float(c) for c in phi.phi01])
        eta = np.array([float(c) for c in phi.eta])
        rho = np.array([float(c) for c in phi.rho])
        phi11 = np.array([[float(c) for c in row] for row in phi.phi11])
        if phi11.size == 0:
            phi11 = phi11.reshape(len(w), len(w))
        new_x = (
            (alpha * delta22 - beta2 * gamma2) * x
            + delta12 * y
            + gamma1 * t
            + beta2 * gamma2 * t * y
            + 0.5 * alpha * gamma2 * t * t
            + 0.5 * delta22 * beta2 * y * y
            + phi01 @ w
        )
        new_y = delta22 * y + gamma2 * t
        new_w = eta * y + rho * t + phi11 @ w
        return np.concatenate([[new_x, new_y], new_w]), beta2 * y + alpha * t
    if isinstance(phi, GenericAut):
        alpha = float(phi.alpha)
        s = alpha * t
        gamma = np.array([float(c) for c in phi.gamma])
        delta = np.array([[float(c) for c in row] for row in phi.delta])
        moved = (s / alpha) * (phi_numeric(aleph, s) @ gamma) + delta @ v
        return moved, s
    raise TypeError(f"not an automorphism datum: {type(phi).__name__}")


# ---------------------------------------------------------------------------
# representations


def entry_numeric(entry) -> float:
    if isinstance(entry, ExpAtom):
        return entry.numeric()
    return float(entry)


def rep_matrix_numeric(matrix) -> np.ndarray:
    """Float entries of a RepMatrix."""
    return np.array(
        [[entry_numeric(e) for e in row] for row in matrix.entries],
        dtype=float,
    )


def group_rep_numeric(aleph, v: np.ndarray, t: float, kind: str = "G") -> np.ndarray:
    """Float version of the group representations, for numeric probes."""
    if kind not in _REP_KINDS:
        raise ValueError(f"unknown representation kind {kind!r}")
    d = aleph.dim
    n = d + 1 if kind == "G" else d + 2
    out = np.zeros((n, n))
    out[0, 0] = 1.0
    out[1 : d + 1, 0] = v
    out[1 : d + 1, 1 : d + 1] = block_exp_numeric(aleph, t)
    if kind == "GI":
        out[d + 1, d + 1] = math.exp(t)
    elif kind == "GII":
        out[d + 1, 0] = t
        out[d + 1, d + 1] = 1.0
    return out


def quotient_rep_numeric(rep, v: np.ndarray, t: float) -> np.ndarray:
    """Float matrix of a QuotientRep at coordinate data (v, t)."""
    dec = rep.decomposition
    d0 = dec.d0
    par = np.array([[float(e) for e in row] for row in rep.p_par]) if rep.p_par else np.zeros((0, len(v) - d0 + 1))
    perp = np.array([[float(e) for e in row] for row in rep.p_perp]) if rep.p_perp else np.zeros((0, len(v) - d0 + 1))
    wt = np.concatenate([np.asarray(v, dtype=float)[d0:], [t]])
    x_par = par @ wt
    y_perp = perp @ wt
    out = np.zeros((rep.dimension, rep.dimension))
    out[: d0 + 1, : d0 + 1] = group_rep_numeric(
        dec.core_aleph, np.asarray(v, dtype=float)[:d0], t)
    o = d0 + 1
    tau = 2 * math.pi
    for x in x_par:
        c, s = math.cos(tau * x), math.sin(tau * x)
        out[o, o] = c
        out[o, o + 1] = -s
        out[o + 1, o] = s
        out[o + 1, o + 1] = c
        o += 2
    for y in y_perp:
        out[o, o] = math.exp(y)
        o += 1
    return out


# ---------------------------------------------------------------------------
# connected subgroups


def membership_numeric(aleph, spec, g, tol: float) -> bool:
    """Float membership test: the defect of g against the subgroup's
    slope, least-squares projected onto its basis."""
    v = np.array([float(x) for x in g.v])
    t = float(g.t)
    if spec.case == 1:
        if abs(t) > tol:
            return False
        defect = v
    else:
        v0 = np.array([float(x) for x in spec.v0])
        defect = v - t * (phi_numeric(aleph, t) @ v0)
    if not spec.basis:
        return bool(np.linalg.norm(defect) <= tol)
    w = np.array([[float(x) for x in row] for row in spec.basis]).T
    coeffs, *_ = np.linalg.lstsq(w, defect, rcond=None)
    return bool(np.linalg.norm(w @ coeffs - defect) <= tol)
