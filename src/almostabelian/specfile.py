"""Line-oriented input files describing a group datum and companions.

One directive per line, '#' starts a comment:

    block <eigenvalue> <size> <multiplicity>
    lattice gen <vector> <integer multiple of t0>
    subgroup case1 basis=<rows>
    subgroup case2 basis=<rows> v0=<vector>
    aut generic alpha=<scalar> delta=<rows> gamma=<vector>
    aut heis alpha=<scalar> [beta2=...] [gamma1=...] [gamma2=...]
             [delta12=...] [delta22=...] [phi01=...] [eta=...] [rho=...]
             [phi11=<rows>]

Vectors are comma-separated scalar literals; rows are semicolon-joined
vectors.  The block section is mandatory, the rest optional.  All
errors carry the offending line number.
"""

from dataclasses import dataclass
from pathlib import Path

from .autos import GenericAut, HeisAut, is_heisenberg_extension
from .errors import DegenerateDatum, InvalidAutomorphism, InvalidSubgroup, NotCentral
from .expmap import torsion
from .jordan import MAX_DIM, MultiplicityFunction, multiplicity_function
from .lattices import DiscreteCentralSubgroup, subgroup_from_data
from .scalars import ZERO, parse_gauss, parse_tau
from .subgroups import ConnectedSubgroupSpec, validate_subspace


class SpecError(ValueError):
    """Input file rejected; the message names file and line."""


@dataclass(frozen=True)
class SpecFile:
    aleph: MultiplicityFunction
    lattice: DiscreteCentralSubgroup | None
    subgroup: ConnectedSubgroupSpec | None
    aut: object


def parse_spec_file(path) -> SpecFile:
    return parse_spec_text(Path(path).read_text(), name=str(path))


def parse_vector(text: str) -> tuple:
    """Comma-separated scalar literals; the empty text is the empty vector."""
    return tuple(parse_tau(tok) for tok in text.split(",")) if text else ()


def _rows(text: str) -> tuple:
    if not text:
        return ()
    return tuple(parse_vector(r) for r in text.split(";"))


def _keyvals(fields, allowed: tuple) -> dict:
    out = {}
    for field in fields:
        key, eq, value = field.partition("=")
        if not eq:
            raise SpecError(f"expected key=value, got {field!r}")
        if key not in allowed:
            raise SpecError(f"unknown key {key!r}")
        if key in out:
            raise SpecError(f"duplicate key {key!r}")
        out[key] = value
    return out


_HEIS_KEYS = (
    "alpha",
    "beta2",
    "gamma1",
    "gamma2",
    "delta12",
    "delta22",
    "phi01",
    "eta",
    "rho",
    "phi11",
)


def parse_spec_text(text: str, name: str = "<spec>") -> SpecFile:
    blocks = {}
    dim = 0
    lattice_lines = []
    subgroup_line = None
    aut_line = None

    def fail(lineno, message):
        raise SpecError(f"{name}:{lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        head = fields[0]
        try:
            if head == "block":
                if len(fields) != 4:
                    raise SpecError("block needs <eigenvalue> <size> <multiplicity>")
                eig = parse_gauss(fields[1])
                size, mult = int(fields[2]), int(fields[3])
                if size < 1 or mult < 1:
                    raise SpecError("size and multiplicity must be positive")
                if (eig, size) in blocks:
                    raise SpecError(f"duplicate block ({fields[1]}, {size})")
                blocks[(eig, size)] = mult
                dim += size * mult * (2 if eig.im else 1)
                if dim > MAX_DIM:
                    raise SpecError(f"total dimension {dim} exceeds the ceiling {MAX_DIM}")
            elif head == "lattice":
                if len(fields) != 4 or fields[1] != "gen":
                    raise SpecError("lattice needs: gen <vector> <integer>")
                lattice_lines.append((lineno, parse_vector(fields[2]), int(fields[3])))
            elif head == "subgroup":
                if subgroup_line is not None:
                    raise SpecError("duplicate subgroup directive")
                if len(fields) < 2 or fields[1] not in ("case1", "case2"):
                    raise SpecError("subgroup needs case1 or case2")
                allowed = ("basis",) if fields[1] == "case1" else ("basis", "v0")
                kv = _keyvals(fields[2:], allowed)
                if fields[1] == "case2" and "v0" not in kv:
                    raise SpecError("case2 needs v0=<vector>")
                subgroup_line = (lineno, fields[1], kv)
            elif head == "aut":
                if aut_line is not None:
                    raise SpecError("duplicate aut directive")
                if len(fields) < 2 or fields[1] not in ("generic", "heis"):
                    raise SpecError("aut needs generic or heis")
                allowed = ("alpha", "delta", "gamma") if fields[1] == "generic" else _HEIS_KEYS
                kv = _keyvals(fields[2:], allowed)
                if "alpha" not in kv:
                    raise SpecError("aut needs alpha=<scalar>")
                aut_line = (lineno, fields[1], kv)
            else:
                raise SpecError(f"unknown directive {head!r}")
        except (ValueError, ZeroDivisionError) as e:
            fail(lineno, e)

    if not blocks:
        raise SpecError(f"{name}: no block lines; the group section is mandatory")
    try:
        aleph = multiplicity_function(blocks)
    except DegenerateDatum as e:
        raise SpecError(f"{name}: {e}") from e

    lattice = _assemble_lattice(aleph, lattice_lines, fail)
    subgroup = _assemble_subgroup(aleph, subgroup_line, fail)
    aut = _assemble_aut(aleph, aut_line, fail)
    return SpecFile(aleph, lattice, subgroup, aut)


def _assemble_lattice(aleph, lines, fail):
    if not lines:
        return None
    tor = torsion(aleph)
    gens = []
    for lineno, v, m in lines:
        if len(v) != aleph.dim:
            fail(lineno, f"generator has {len(v)} coordinates, expected {aleph.dim}")
        if m and tor.is_trivial:
            fail(lineno, "nonzero time multiple needs nontrivial torsion")
        gens.append((v, m * tor.t0 if m else ZERO))
        # building each prefix names the first line that breaks the lattice
        try:
            lattice = subgroup_from_data(aleph, gens)
        except (NotCentral, InvalidSubgroup) as e:
            fail(lineno, e)
    return lattice


def _assemble_subgroup(aleph, line, fail):
    if line is None:
        return None
    lineno, case, kv = line
    try:
        basis = _rows(kv.get("basis", ""))
        v0 = parse_vector(kv["v0"]) if case == "case2" else None
    except ValueError as e:
        fail(lineno, e)
    violations = validate_subspace(aleph, basis)
    if violations:
        fail(lineno, violations[0])
    if v0 is not None and len(v0) != aleph.dim:
        fail(lineno, f"v0 has {len(v0)} coordinates, expected {aleph.dim}")
    return ConnectedSubgroupSpec(aleph, basis, v0)


def _assemble_aut(aleph, line, fail):
    if line is None:
        return None
    lineno, kind, kv = line
    try:
        if kind == "generic":
            delta = _rows(kv.get("delta", ""))
            gamma = parse_vector(kv.get("gamma", ""))
            if not delta:
                fail(lineno, "aut generic needs delta=<rows>")
            if len(delta) != aleph.dim:
                fail(lineno, f"delta has {len(delta)} rows, expected {aleph.dim}")
            if not gamma:
                gamma = (ZERO,) * aleph.dim
            return GenericAut(delta, gamma, parse_tau(kv["alpha"]))
        if not is_heisenberg_extension(aleph):
            fail(lineno, "ten-parameter automorphisms require a Heisenberg central extension datum")
        args = {"alpha": parse_tau(kv["alpha"])}
        for key in ("beta2", "gamma1", "gamma2", "delta12", "delta22"):
            if key in kv:
                args[key] = parse_tau(kv[key])
        for key in ("phi01", "eta", "rho"):
            if key in kv:
                args[key] = parse_vector(kv[key])
        if "phi11" in kv:
            args["phi11"] = _rows(kv["phi11"])
        return HeisAut(**args)
    except SpecError:
        raise
    except (ValueError, InvalidAutomorphism) as e:
        fail(lineno, e)
