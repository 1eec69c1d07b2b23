"""Batch front-end: read a spec file, run one analysis, print a report.

Exit codes: 0 for a true/ok decision, 1 for false/violation, 2 for
input errors, 3 for an internal error (a fault of this program).
--machine switches to key=value output; exact scalars print in the
literal grammar and re-parse to equal values.
"""

import argparse
import re
import sys

from .autos import apply_aut, is_heisenberg_extension, validate_aut
from .errors import ExactnessUnavailable, InvalidAutomorphism
from .expmap import (
    dilation_group,
    exp_map,
    group_mul,
    is_central,
    is_exponential,
    torsion,
)
from .jordan import algebra_element, build_jordan, group_element
from .lattices import (
    DiscreteCentralSubgroup,
    has_faithful_quotient_rep,
    normalize_subgroup,
    preserves_lattice,
    reduce_generators,
    related_by_aut_search,
)
from .reps import (
    decompose,
    group_rep_G,
    group_rep_GI,
    group_rep_GII,
    is_simply_connected_G,
)
from .scalars import parse_tau
from .specfile import SpecError, parse_spec_file, parse_vector
from .subgroups import is_quotient_subgroup_closed

_REPS = {"G": group_rep_G, "GI": group_rep_GI, "GII": group_rep_GII}


def _fmt(x: float, digits: int) -> str:
    return f"{float(x):.{digits}g}"


def _vector_arg(text: str, d: int) -> tuple:
    v = parse_vector(text)
    if len(v) != d:
        raise SpecError(f"element vector has {len(v)} coordinates, expected {d}")
    return v


def _element(spec, v_text: str, t_text: str):
    aleph = spec.aleph
    return group_element(aleph, _vector_arg(v_text, aleph.dim), parse_tau(t_text))


def _vec_str(v) -> str:
    return ",".join(str(c) for c in v)


def _mat_str(rows) -> str:
    return ";".join(_vec_str(r) for r in rows)


def _emit(args, lines, pairs):
    if args.machine:
        for key, value in pairs:
            print(f"{key}={value}")
    else:
        for line in lines:
            print(line)


def _need(spec, section):
    value = getattr(spec, section)
    if value is None:
        raise SpecError(f"spec has no {section} section")
    return value


def _at_least(args, flag, low):
    if getattr(args, flag) < low:
        raise ValueError(f"--{flag} must be at least {low}")


def _emit_element(args, g):
    """Print an exact group element, or the (v, t) floats of numeric mode."""
    if args.mode == "numeric":
        vf, tf = g
        v_text = ",".join(_fmt(c, args.digits) for c in vf)
        t_text = _fmt(tf, args.digits)
    else:
        v_text = _vec_str(g.v)
        t_text = str(g.t)
    _emit(args, [f"[{v_text} | {t_text}]"], [("v", v_text), ("t", t_text)])


def _emit_not_representable(args) -> int:
    _emit(
        args,
        ["no faithful quotient representation: generator span meets [L,L]"],
        [("representable", "no")],
    )
    return 1


def _gen_pairs(prefix, subgroup):
    out = []
    for i, g in enumerate(subgroup.generators):
        out.append((f"{prefix}{i}_v", _vec_str(g.v)))
        out.append((f"{prefix}{i}_t", str(g.t)))
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(spec, args):
    aleph = spec.aleph
    tor = torsion(aleph)
    verdict = is_exponential(aleph)
    dec = decompose(aleph)
    cen_dim = len(aleph.kernel_coordinates)
    dil = dilation_group(aleph).value
    lines = [f"dimension: {aleph.dim} + 1"]
    lines.append("J:")
    for row in build_jordan(aleph):
        lines.append("  " + " ".join(str(x) for x in row))
    if verdict.exponential:
        lines.append("exponential: yes")
    else:
        lines.append(f"exponential: no (witness {verdict.witness})")
    if tor.is_trivial:
        lines.append("torsion: T = {0}")
    else:
        lines.append(f"torsion: T = {tor}, omega0 = {tor.omega0}, t0 = {tor.t0}")
    lines.append(f"center: ker J (dim {cen_dim}) x T")
    lines.append(f"dilations: {dil}")
    lines.append(f"simply connected: {'yes' if is_simply_connected_G(aleph) else 'no'}")
    lines.append(
        f"heisenberg extension: {'yes' if is_heisenberg_extension(aleph) else 'no'}"
    )
    lines.append(f"core: d0 = {dec.d0}, abelian factor R^{aleph.dim - dec.d0}")
    pairs = [
        ("d", aleph.dim),
        ("exponential", "yes" if verdict.exponential else "no"),
        ("witness", verdict.witness if verdict.witness is not None else ""),
        ("torsion", str(tor).replace(" ", "")),
        ("omega0", tor.omega0 if tor.omega0 is not None else ""),
        ("t0", tor.t0 if tor.t0 is not None else ""),
        ("kernel_dim", cen_dim),
        ("dilations", dil.replace(" ", "")),
        ("simply_connected", "yes" if is_simply_connected_G(aleph) else "no"),
        ("heisenberg_extension", "yes" if is_heisenberg_extension(aleph) else "no"),
        ("d0", dec.d0),
    ]
    _emit(args, lines, pairs)
    return 0


def cmd_exp(spec, args):
    aleph = spec.aleph
    x = algebra_element(aleph, _vector_arg(args.v, aleph.dim), parse_tau(args.t))
    _emit_element(args, exp_map(aleph, x, mode=args.mode))
    return 0


def cmd_mul(spec, args):
    aleph = spec.aleph
    g = _element(spec, args.v1, args.t1)
    h = _element(spec, args.v2, args.t2)
    _emit_element(args, group_mul(aleph, g, h, mode=args.mode))
    return 0


def cmd_center_member(spec, args):
    g = _element(spec, args.v, args.t)
    ok = is_central(spec.aleph, g)
    _emit(args, ["central" if ok else "not central"], [("central", "yes" if ok else "no")])
    return 0 if ok else 1


def _print_rep(args, matrix):
    if args.mode == "numeric":
        grid = matrix.numeric()
        rows = [" ".join(_fmt(x, args.digits) for x in row) for row in grid]
    else:
        rows = matrix.row_strings()
    pairs = [(f"row{i}", r) for i, r in enumerate(rows)]
    pairs.insert(0, ("dimension", matrix.dimension))
    _emit(args, rows, pairs)


def cmd_rep(spec, args):
    aleph = spec.aleph
    g = _element(spec, args.v, args.t)
    if args.kind == "quotient":
        decision = has_faithful_quotient_rep(aleph, _need(spec, "lattice"))
        if not decision.representable:
            return _emit_not_representable(args)
        _print_rep(args, decision.rep.matrix(apply_aut(aleph, decision.phi, g)))
        return 0
    _print_rep(args, _REPS[args.kind](aleph, g))
    return 0


def cmd_reduce(spec, args):
    lattice = _need(spec, "lattice")
    reduced, a = reduce_generators(lattice)
    lines = ["economic form:"]
    lines.extend(f"  {g}" for g in reduced.generators)
    lines.append(f"A: {_mat_str(a)}")
    pairs = _gen_pairs("gen", reduced)
    pairs.append(("a", _mat_str(a)))
    _emit(args, lines, pairs)
    return 0


def cmd_normalize(spec, args):
    lattice = _need(spec, "lattice")
    phi, image = normalize_subgroup(lattice)
    lines = [
        f"alpha: {phi.alpha}",
        f"gamma: {_vec_str(phi.gamma)}",
        f"delta: {_mat_str(phi.delta)}",
        "image:",
    ]
    lines.extend(f"  {g}" for g in image.generators)
    pairs = [
        ("alpha", phi.alpha),
        ("gamma", _vec_str(phi.gamma)),
        ("delta", _mat_str(phi.delta)),
    ]
    pairs.extend(_gen_pairs("gen", image))
    _emit(args, lines, pairs)
    return 0


def cmd_faithful(spec, args):
    decision = has_faithful_quotient_rep(spec.aleph, _need(spec, "lattice"))
    if decision.representable:
        _emit(
            args,
            [f"faithful quotient representation: yes (dimension {decision.rep.dimension})"],
            [("representable", "yes"), ("dimension", decision.rep.dimension)],
        )
        return 0
    return _emit_not_representable(args)


def cmd_closed(spec, args):
    subgroup = _need(spec, "subgroup")
    lattice = spec.lattice
    if lattice is None:
        lattice = DiscreteCentralSubgroup(spec.aleph, ())
    ok = is_quotient_subgroup_closed(spec.aleph, subgroup, lattice)
    _emit(args, ["closed" if ok else "dense"], [("closed", "yes" if ok else "no")])
    return 0 if ok else 1


def cmd_aut(spec, args):
    aleph = spec.aleph
    phi = _need(spec, "aut")
    violations = validate_aut(aleph, phi)
    if args.action == "validate":
        if not violations:
            _emit(args, ["valid"], [("valid", "yes")])
            return 0
        _emit(args, list(violations), [("valid", "no")] + [
            (f"violation{i}", v) for i, v in enumerate(violations)
        ])
        return 1
    if violations:
        raise InvalidAutomorphism(violations[0])
    if args.action == "apply":
        g = _element(spec, args.v, args.t)
        _emit_element(args, apply_aut(aleph, phi, g, mode=args.mode))
        return 0
    a = preserves_lattice(aleph, phi, _need(spec, "lattice"))
    if a is None:
        _emit(args, ["not preserved"], [("preserved", "no")])
        return 1
    _emit(args, [f"A: {_mat_str(a)}"], [("preserved", "yes"), ("a", _mat_str(a))])
    return 0


def cmd_related(spec, args):
    _at_least(args, "bound", 0)
    other = parse_spec_file(args.other)
    n = _need(spec, "lattice")
    m = _need(other, "lattice")
    n_econ, _ = reduce_generators(n)
    m_econ, _ = reduce_generators(m)
    found = related_by_aut_search(n_econ, m_econ, bound=args.bound)
    if found is None:
        _emit(args, ["not related within bound"], [("related", "no")])
        return 1
    delta_tilde, a = found
    _emit(
        args,
        [f"delta_tilde: {_mat_str(delta_tilde)}", f"A: {_mat_str(a)}"],
        [("related", "yes"), ("delta_tilde", _mat_str(delta_tilde)), ("a", _mat_str(a))],
    )
    return 0


def cmd_oracle(spec, args):
    # the oracle loads numpy and scipy, so only this command imports it
    from .oracle import DEFAULT_SEED, antihermitian_probe, exp_crosscheck, injectivity_probe

    aleph = spec.aleph
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.probe == "heis":
        _at_least(args, "trials", 1)
        _at_least(args, "dim", 2)
        report = antihermitian_probe(args.trials, args.dim, seed=seed)
    else:
        _at_least(args, "samples", 1)
        probe = exp_crosscheck if args.probe == "expcheck" else injectivity_probe
        report = probe(aleph, args.samples, seed=seed)
    pairs = [
        ("passed", "yes" if report.passed else "no"),
        ("max_dev", report.max_dev),
        ("detail", report.detail),
    ]
    _emit(args, [report.line()] + ([report.detail] if report.detail else []), pairs)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument wiring


def _hex_seed(text: str) -> int:
    return int(text, 16)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="almostabelian",
        description="Exact computations on almost Abelian Lie groups from a spec file.",
    )
    parser.add_argument("--spec", required=True, help="path to the spec file")
    parser.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    parser.add_argument("--digits", type=int, default=12, help="digits in numeric output")
    parser.add_argument("--seed", type=_hex_seed, help="hex RNG seed for the oracle (default 5eed)")
    parser.add_argument("--machine", action="store_true", help="key=value output")
    parser.add_argument("--bound", type=int, default=1, help="search bound for aut related")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("analyze").set_defaults(handler=cmd_analyze)

    p = sub.add_parser("exp")
    p.add_argument("v")
    p.add_argument("t")
    p.set_defaults(handler=cmd_exp)

    p = sub.add_parser("mul")
    p.add_argument("v1")
    p.add_argument("t1")
    p.add_argument("v2")
    p.add_argument("t2")
    p.set_defaults(handler=cmd_mul)

    p = sub.add_parser("center-member")
    p.add_argument("v")
    p.add_argument("t")
    p.set_defaults(handler=cmd_center_member)

    p = sub.add_parser("rep")
    p.add_argument("kind", choices=("G", "GI", "GII", "quotient"))
    p.add_argument("v")
    p.add_argument("t")
    p.set_defaults(handler=cmd_rep)

    sub.add_parser("reduce").set_defaults(handler=cmd_reduce)
    sub.add_parser("normalize").set_defaults(handler=cmd_normalize)
    sub.add_parser("faithful").set_defaults(handler=cmd_faithful)
    sub.add_parser("closed").set_defaults(handler=cmd_closed)

    p = sub.add_parser("aut")
    p.add_argument("action", choices=("validate", "apply", "preserves"))
    p.add_argument("v", nargs="?", default="")
    p.add_argument("t", nargs="?", default="0")
    p.set_defaults(handler=cmd_aut)

    p = sub.add_parser("related")
    p.add_argument("--other", required=True, help="spec file with the second lattice")
    p.set_defaults(handler=cmd_related)

    p = sub.add_parser("oracle")
    p.add_argument("probe", choices=("expcheck", "inject", "heis"))
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--dim", type=int, default=6)
    p.set_defaults(handler=cmd_oracle)

    # argparse reads an argument that its private _negative_number_matcher
    # (set in __init__) matches as an operand; no option here starts with
    # -digit, -( or -tau.  TestNegativeOperands fails if argparse drops it.
    operand = re.compile(r"-(?:[\d(]|tau)")
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = operand
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _at_least(args, "digits", 0)
        spec = parse_spec_file(args.spec)
        return args.handler(spec, args)
    except OSError as e:
        print(f"error: cannot read spec file: {e}", file=sys.stderr)
        return 2
    except ExactnessUnavailable as e:
        print(f"error: exact evaluation unavailable: {e}", file=sys.stderr)
        print("hint: rerun with --mode numeric", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
