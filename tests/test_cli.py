"""Command line behavior: reports, exit codes, round-trips."""

import argparse
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import almostabelian
from almostabelian import cli
from almostabelian.autos import apply_aut, compose
from almostabelian.cli import main
from almostabelian.expmap import exp_map, group_mul
from almostabelian.integers import det_int
from almostabelian.jordan import algebra_element, group_element, multiplicity_function
from almostabelian.scalars import TAU, GaussRational, parse_tau
from almostabelian.specfile import parse_spec_file


@pytest.fixture
def specs(tmp_path):
    files = {
        "e2": "block i 1 1\nlattice gen 0,0 1\n",
        "heis": "block 0 2 1\nlattice gen 1,0 0\n",
        "aff": "block 1 1 1\n",
        "e2r2": (
            "block i 1 1\nblock 0 1 2\n"
            "lattice gen 0,0,1,0 0\nlattice gen 0,0,0,1 0\n"
            "subgroup case1 basis=0,0,1,tau\n"
        ),
        "e2r2_rat": (
            "block i 1 1\nblock 0 1 2\n"
            "lattice gen 0,0,1,0 0\nlattice gen 0,0,0,1 0\n"
            "subgroup case1 basis=0,0,1,1\n"
        ),
        "e2r2_mixed": (
            "block i 1 1\nblock 0 1 2\n"
            "lattice gen 0,0,1,0 2\nlattice gen 0,0,0,1 3\n"
        ),
        "e2aut": (
            "block i 1 1\nlattice gen 0,0 1\n"
            "aut generic alpha=-1 delta=1,0;0,-1 gamma=0,0\n"
        ),
        "ragged": "block 0 2 1\nblock 0 1 1\naut generic alpha=1 delta=1,0,0,5;0,1,0;0,0,1\n",
        "shape": "block 0 2 1\nblock 0 1 1\naut generic alpha=1 delta=1,0;0,1;0,0\n",
        "noncentral": "block i 1 1\nlattice gen 1,0 0\n",
        "heis_aut_e2": "block i 1 1\naut heis alpha=1\n",
        "heis_aut_dim": "block 0 2 1\nblock 0 1 1\naut heis alpha=1\n",
        "bad_generic_aut": (
            "block i 1 1\nlattice gen 0,0 1\n"
            "aut generic alpha=1 delta=2,0;0,1 gamma=0,0\n"
        ),
        "not_invariant": (
            "block i 1 1\nblock 0 1 1\n"
            "lattice gen 0,0,1 0\nsubgroup case1 basis=1,0,0\n"
        ),
        "heis_r_n": "block 0 2 1\nblock 0 1 1\nlattice gen 0,0,1 0\n",
        "heis_r_m": "block 0 2 1\nblock 0 1 1\nlattice gen 1,0,1 0\n",
        "e2r2_n": "block i 1 1\nblock 0 1 2\nlattice gen 0,0,1,0 0\n",
        "e2r2_m": "block i 1 1\nblock 0 1 2\nlattice gen 0,0,0,1 0\n",
    }
    paths = {}
    for name, text in files.items():
        p = tmp_path / f"{name}.spec"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def machine_dict(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


class TestAnalyze:
    def test_e2_report(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["e2"], "analyze")
        assert code == 0
        assert "exponential: no (witness i)" in out
        assert "t0 = tau" in out
        assert "dilations: {1, -1}" in out

    def test_heis_report(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["heis"], "analyze")
        assert code == 0
        assert "exponential: yes" in out
        assert "T = {0}" in out
        assert "heisenberg extension: yes" in out

    def test_aff_dilations(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["aff"], "analyze")
        assert code == 0
        assert "dilations: {1}" in out

    def test_machine(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["e2"], "--machine", "analyze")
        pairs = machine_dict(out)
        assert pairs["exponential"] == "no"
        assert pairs["witness"] == "i"
        assert parse_tau(pairs["t0"]) == TAU
        assert pairs["simply_connected"] == "no"


class TestElementOps:
    def test_exp_exact(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["heis"], "exp", "1,2", "3")
        assert code == 0
        assert out.strip() == "[4,2 | 3]"

    def test_exp_roundtrip(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["heis"], "--machine", "exp", "1/3,2", "3")
        pairs = machine_dict(out)
        assert parse_tau(pairs["t"]) == 3
        v = [parse_tau(tok) for tok in pairs["v"].split(",")]
        assert v[1] == 2

    def test_exp_output_feeds_mul(self, specs, capsys):
        # exp's machine v and t go back in as mul's first operand
        _, out = run(capsys, "--spec", specs["e2"], "--machine", "exp", "1/3,2", "3/4*tau")
        g = machine_dict(out)
        code, out = run(
            capsys, "--spec", specs["e2"], "--machine", "mul", g["v"], g["t"], "1,-1", "tau/2"
        )
        assert code == 0
        e2 = multiplicity_function({(GaussRational(0, 1), 1): 1})
        x = algebra_element(e2, (Fraction(1, 3), 2), 3 * TAU / 4)
        want = group_mul(e2, exp_map(e2, x), group_element(e2, (1, -1), TAU / 2))
        got = machine_dict(out)
        assert tuple(parse_tau(c) for c in got["v"].split(",")) == want.v
        assert parse_tau(got["t"]) == want.t

    def test_exp_exactness_unavailable(self, specs, capsys):
        code = main(["--spec", specs["e2"], "exp", "1,0", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "block (i, 1)" in err

    def test_quarter_turn_exact(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["e2"], "exp", "1,0", "tau/4")
        assert code == 0
        assert out.strip() == "[(4)/(tau),(4)/(tau) | 1/4*tau]"
        code, out = run(capsys, "--spec", specs["e2"], "mul", "0,0", "tau/4", "1,0", "0")
        assert code == 0
        assert out.strip() == "[0,1 | 1/4*tau]"

    def test_exp_numeric(self, specs, capsys):
        code, out = run(
            capsys, "--spec", specs["e2"], "--mode", "numeric", "exp", "1,0", "1"
        )
        assert code == 0
        assert out.startswith("[0.841")

    def test_mul(self, specs, capsys):
        code, out = run(
            capsys, "--spec", specs["heis"], "--machine", "mul", "1,0", "0", "0,1", "2"
        )
        pairs = machine_dict(out)
        assert code == 0
        assert pairs["v"] == "1,1" and pairs["t"] == "2"

    def test_center_member(self, specs, capsys):
        assert run(capsys, "--spec", specs["e2"], "center-member", "0,0", "tau")[0] == 0
        assert run(capsys, "--spec", specs["e2"], "center-member", "0,0", "1/2*tau")[0] == 1


class TestRep:
    def test_rep_g_exact_atoms(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["e2"], "rep", "G", "1,2", "1/2")
        assert code == 0
        assert "cos(1/2)" in out and "sin(1/2)" in out

    def test_rep_gi_corner(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["heis"], "rep", "GI", "1,2", "3")
        assert code == 0
        assert out.splitlines()[-1].endswith("exp(3)")

    def test_rep_quotient_obstructed(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["heis"], "rep", "quotient", "1,0", "0")
        assert code == 1
        assert "span meets [L,L]" in out

    def test_rep_quotient_torsion(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["e2"], "rep", "quotient", "0,0", "tau")
        assert code == 0
        assert len(out.splitlines()) >= 3


class TestLatticePipeline:
    def test_reduce_euclid(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["e2r2_mixed"], "--machine", "reduce")
        assert code == 0
        pairs = machine_dict(out)
        assert parse_tau(pairs["gen0_t"]) == TAU
        assert parse_tau(pairs["gen1_t"]) == 0
        a = [
            [int(x) for x in row.split(",")]
            for row in pairs["a"].split(";")
        ]
        assert det_int(a) in (1, -1)

    def test_normalize(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["e2"], "--machine", "normalize")
        assert code == 0
        pairs = machine_dict(out)
        assert pairs["alpha"] == "1"
        assert parse_tau(pairs["gen0_t"]) == TAU

    def test_faithful_obstruction(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["heis"], "faithful")
        assert code == 1
        assert "span meets [L,L]" in out

    def test_faithful_yes(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["e2"], "faithful")
        assert code == 0
        assert "yes" in out

    def test_closed_dense(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["e2r2"], "closed")
        assert code == 1
        assert out.strip() == "dense"

    def test_closed_rational(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["e2r2_rat"], "closed")
        assert code == 0
        assert out.strip() == "closed"


class TestNegativeOperands:
    """An operand that starts with a minus sign is read as an operand, not
    as an option; "-h" and "--" keep their meaning."""

    @pytest.mark.parametrize(
        "operands",
        [
            ("-1,2", "tau"),
            ("1,-2", "-tau"),
            ("-1/4*tau,1", "-1/4*tau"),
            ("-(1+tau),0", "-(1+tau)"),
            ("--", "-1,-2", "-3"),
        ],
    )
    def test_exp(self, specs, capsys, operands):
        code, out = run(capsys, "--spec", specs["heis"], "--machine", "exp", *operands)
        assert code == 0
        v, t = (x for x in operands if x != "--")
        aleph = parse_spec_file(specs["heis"]).aleph
        g = exp_map(aleph, algebra_element(aleph, [parse_tau(c) for c in v.split(",")], parse_tau(t)))
        pairs = machine_dict(out)
        assert (pairs["v"], pairs["t"]) == (",".join(str(c) for c in g.v), str(g.t))

    def test_every_parser_replaces_argparse_own_matcher(self):
        # the CLI overwrites an attribute that argparse itself defines on
        # every parser, so a rename in argparse fails here instead of
        # leaving the override a dead assignment
        assert "_negative_number_matcher" in vars(argparse.ArgumentParser())
        parser = cli._build_parser()
        (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for p in (parser, *subparsers.choices.values()):
            assert p._negative_number_matcher.match("-(1+tau)"), p.prog
            assert not p._negative_number_matcher.match("-h"), p.prog

    def test_help_is_still_an_option(self, specs, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["--spec", specs["heis"], "exp", "-h"])
        assert raised.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_unknown_option_is_still_rejected(self, specs, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["--spec", specs["heis"], "exp", "-x", "0"])
        assert raised.value.code == 2


class TestAut:
    def test_validate(self, specs, capsys):
        assert run(capsys, "--spec", specs["e2aut"], "aut", "validate")[0] == 0

    def test_apply(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["e2aut"], "aut", "apply", "1,2", "tau")
        assert code == 0
        assert out.strip() == "[1,-2 | -tau]"

    # spec, g = (v, t) and k = (v, t), at quarter turns on the rotation
    E2_R2 = (
        "block i 1 1\nblock 0 1 2\naut generic alpha=-1 "
        "delta=1,0,0,0;0,-1,0,0;0,0,2,1;0,0,0,1 gamma=1,0,tau,1\n"
    )
    HEIS_R = (
        "block 0 2 1\nblock 0 1 1\naut heis alpha=2 beta2=1 gamma1=tau gamma2=1/2 "
        "delta12=1 delta22=3 phi01=1 eta=2 rho=tau phi11=1\n"
    )
    # spec, g and k; on the "negative" cases g's image prints v and t with a
    # leading minus sign
    ROUND_TRIP = {
        "generic on E(2) x R^2": (E2_R2, ("1,2,0,3", "tau/4"), ("1,-1,1/2,tau", "tau/2")),
        "generic on E(2) x R^2, negative": (
            E2_R2, ("-1,-2,-1,-3", "tau/2"), ("-1,1,1/2,-tau", "-tau/2"),
        ),
        "ten-parameter on heis x R": (HEIS_R, ("1,2,3", "1/3"), ("0,1,-1", "2")),
        "ten-parameter on heis x R, negative": (HEIS_R, ("-1,-1,-1", "-1"), ("0,-1,1", "-2")),
    }

    @pytest.mark.parametrize("name", sorted(ROUND_TRIP))
    def test_apply_output_feeds_mul_and_apply(self, tmp_path, capsys, name):
        # aut apply's machine v and t go back in, with no "--" even when they
        # start with a minus sign, as either operand of mul and as a second
        # aut apply's element; all match the library
        text, g_args, k_args = self.ROUND_TRIP[name]
        path = tmp_path / "aut.spec"
        path.write_text(text)
        spec = parse_spec_file(path)
        aleph, phi = spec.aleph, spec.aut

        def machine(*argv):
            code, out = run(capsys, "--spec", str(path), "--machine", *argv)
            assert code == 0
            pairs = machine_dict(out)
            return pairs["v"], pairs["t"]

        def element(v, t):
            return group_element(aleph, [parse_tau(c) for c in v.split(",")], parse_tau(t))

        assert run(capsys, "--spec", str(path), "aut", "validate")[0] == 0
        image = machine("aut", "apply", *g_args)
        if name.endswith("negative"):
            assert all(x.startswith("-") for x in image)
        g, k = element(*g_args), element(*k_args)
        assert element(*image) == apply_aut(aleph, phi, g)
        assert element(*machine("mul", *image, *k_args)) == group_mul(
            aleph, apply_aut(aleph, phi, g), k
        )
        assert element(*machine("mul", *k_args, *image)) == group_mul(
            aleph, k, apply_aut(aleph, phi, g)
        )
        twice = machine("aut", "apply", *image)
        assert element(*twice) == apply_aut(aleph, compose(phi, phi), g)

    def test_preserves(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["e2aut"], "--machine", "aut", "preserves")
        assert code == 0
        assert machine_dict(out)["a"] == "-1"

    def test_related_self(self, specs, capsys):
        code, out = run(
            capsys, "--spec", specs["e2"], "related", "--other", specs["e2"]
        )
        assert code == 0

    def test_related_entry_above_blocks(self, specs, capsys):
        code, out = run(
            capsys, "--spec", specs["heis_r_n"], "related", "--other", specs["heis_r_m"]
        )
        assert code == 0
        assert out == "delta_tilde: 1,-1;0,-1\nA: -1\n"

    def test_related_swap(self, specs, capsys):
        # related by the coordinate swap, found through a singular
        # zero-filled Delta
        code, out = run(
            capsys, "--spec", specs["e2r2_n"], "related", "--other", specs["e2r2_m"]
        )
        assert code == 0
        assert out == "delta_tilde: 0,1;-1,1\nA: -1\n"

    def test_related_index_two(self, specs, capsys):
        other = specs["e2"].replace("e2.spec", "e2b.spec")
        with open(other, "w") as fh:
            fh.write("block i 1 1\nlattice gen 0,0 2\n")
        code, out = run(capsys, "--spec", specs["e2"], "related", "--other", other)
        assert code == 1


class TestOracleCommands:
    def test_expcheck(self, specs, capsys):
        code, out = run(
            capsys, "--spec", specs["heis"], "oracle", "expcheck", "--samples", "20"
        )
        assert code == 0
        assert out.startswith("PASS exp_crosscheck max_dev=")

    def test_inject_collision(self, specs, capsys):
        code, out = run(capsys, "--spec", specs["e2"], "oracle", "inject")
        assert code == 0
        assert "collision at t = tau" in out

    def test_heis_probe(self, specs, capsys):
        code, out = run(
            capsys, "--spec", specs["heis"], "oracle", "heis", "--trials", "40"
        )
        assert code == 0
        assert "PASS antihermitian_probe" in out


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["--spec", "/nonexistent.spec", "analyze"]) == 2

    def test_parse_error_line(self, tmp_path, capsys):
        p = tmp_path / "bad.spec"
        p.write_text("block i 1 1\nwat 1 2\n")
        assert main(["--spec", str(p), "analyze"]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_missing_section(self, specs, capsys):
        assert main(["--spec", specs["aff"], "reduce"]) == 2
        assert "lattice" in capsys.readouterr().err

    def test_internal_error_exits_3(self, specs, capsys, monkeypatch):
        def broken(spec, args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_analyze", broken)
        assert main(["--spec", specs["e2"], "analyze"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: boom\n"
        assert "Traceback" not in captured.out + captured.err


class TestInvalidInput:
    """Invalid input exits 2 with one error line, never with a traceback."""

    def test_division_by_zero_literal(self, specs, capsys):
        assert main(["--spec", specs["e2"], "exp", "1,0", "1/0"]) == 2
        assert capsys.readouterr().err.startswith("error: division by zero")

    @pytest.mark.parametrize("name", ["ragged", "shape"])
    @pytest.mark.parametrize("action", [["validate"], ["apply", "1,1,1", "0"]])
    def test_non_square_delta(self, specs, capsys, name, action):
        assert main(["--spec", specs[name], "aut", *action]) == 2
        err = capsys.readouterr().err
        assert f"{specs[name]}:3: delta must be a square matrix" in err

    def test_huge_block(self, tmp_path, capsys):
        path = tmp_path / "huge.spec"
        path.write_text("block 0 99999999999999999999 1\n")
        assert main(["--spec", str(path), "analyze"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:1: total dimension")

    def test_deeply_nested_literal(self, specs, tmp_path, capsys):
        deep = "(" * 1200 + "1" + ")" * 1200
        assert main(["--spec", specs["heis"], "exp", "1,0", deep]) == 2
        assert "nests parentheses" in capsys.readouterr().err
        path = tmp_path / "nested.spec"
        path.write_text(f"block 0 2 1\naut heis alpha={deep}\n")
        assert main(["--spec", str(path), "aut", "validate"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:2: TauScalar literal nests")

    def test_high_degree_literal(self, specs, tmp_path, capsys):
        assert main(["--spec", specs["heis"], "exp", "1,0", "(1+tau)^33"]) == 2
        assert "exceeds degree 32" in capsys.readouterr().err
        path = tmp_path / "degree.spec"
        path.write_text("block 0 2 1\naut heis alpha=(1+tau)^64\n")
        assert main(["--spec", str(path), "aut", "validate"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:2: TauScalar literal")

    def test_large_literal(self, specs, tmp_path, capsys):
        assert main(["--spec", specs["heis"], "exp", "1,0", "3^10000000"]) == 2
        assert "exceeds 4096 bits in a coefficient" in capsys.readouterr().err
        path = tmp_path / "bits.spec"
        path.write_text("block 0 2 1\naut heis alpha=1 gamma1=(2^2000)*(2^2000)*(2^2000)\n")
        assert main(["--spec", str(path), "aut", "validate"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:2: TauScalar literal")

    def test_noncentral_lattice(self, specs, capsys):
        assert main(["--spec", specs["noncentral"], "reduce"]) == 2
        assert f"{specs['noncentral']}:2: generator" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["exact", "numeric"])
    @pytest.mark.parametrize(
        "name, v, error",
        [
            ("heis_aut_e2", "1,1", "ten-parameter automorphisms require"),
            ("heis_aut_dim", "1,1,1", "dimension mismatch"),
        ],
    )
    def test_heis_aut_on_wrong_datum(self, specs, capsys, mode, name, v, error):
        # a ten-parameter line off a Heisenberg extension is refused where
        # the spec is read (exit 2, with its line); a datum of the wrong
        # dimension is the automorphism's violation (aut validate exits 1)
        path = specs[name]
        at_load = name == "heis_aut_e2"
        prefix = f"error: {path}:2: " if at_load else "error: "
        assert main(["--spec", path, "--mode", mode, "aut", "apply", v, "1"]) == 2
        assert capsys.readouterr().err.startswith(prefix + error)
        assert main(["--spec", path, "aut", "validate"]) == (2 if at_load else 1)
        out = capsys.readouterr()
        assert error in (out.err if at_load else out.out)

    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["exp", "1,1", "1"], ["aut", "validate"], ["aut", "apply", "1,1", "1"],
         ["aut", "preserves"], ["reduce"]],
    )
    def test_heis_aut_off_heisenberg_rejected_at_load(self, specs, capsys, command):
        # on E(2) `aut heis alpha=1` would be the identity differential, so
        # the ten-parameter form is refused where the spec is read
        path = specs["heis_aut_e2"]
        assert main(["--spec", path, *command]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:2: ten-parameter automorphisms require a Heisenberg "
            "central extension datum\n"
        )

    @pytest.mark.parametrize("mode", ["exact", "numeric"])
    @pytest.mark.parametrize("action", [["apply", "1,1", "1"], ["preserves"]])
    def test_invalid_generic_aut(self, specs, capsys, mode, action):
        path = specs["bad_generic_aut"]
        assert main(["--spec", path, "--mode", mode, "aut", *action]) == 2
        assert capsys.readouterr().err == "error: Delta J != alpha J Delta\n"
        assert main(["--spec", path, "aut", "validate"]) == 1
        assert "Delta J != alpha J Delta" in capsys.readouterr().out

    def test_subgroup_not_j_invariant(self, specs, capsys):
        path = specs["not_invariant"]
        assert main(["--spec", path, "closed"]) == 2
        err = capsys.readouterr().err
        assert f"{path}:4: J maps (1, 0, 0) outside the subspace" in err

    def test_negative_bound(self, specs, capsys):
        argv = ["--spec", specs["e2"], "--bound", "-1", "related", "--other", specs["e2"]]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --bound must be at least 0\n"

    @pytest.mark.parametrize("probe", ["expcheck", "inject"])
    def test_no_samples(self, specs, capsys, probe):
        assert main(["--spec", specs["heis"], "oracle", probe, "--samples", "0"]) == 2
        assert capsys.readouterr().err == "error: --samples must be at least 1\n"

    def test_no_trials(self, specs, capsys):
        assert main(["--spec", specs["heis"], "oracle", "heis", "--trials", "0"]) == 2
        assert capsys.readouterr().err == "error: --trials must be at least 1\n"

    @pytest.mark.parametrize("other", ["heis", "e2"])
    def test_related_across_groups(self, specs, capsys, other):
        argv = ["--spec", specs["heis_r_n"], "related", "--other", specs[other]]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: subgroups live in different groups\n"

    def test_negative_digits(self, specs, capsys):
        argv = ["--spec", specs["e2"], "--mode", "numeric", "--digits", "-1", "exp", "1,0", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --digits must be at least 0\n"
        assert run(capsys, *argv[:5], "0", *argv[6:]) == (0, "[0.8,0.5 | 1]\n")

    def test_heis_probe_dimension(self, specs, capsys):
        assert main(["--spec", specs["heis"], "oracle", "heis", "--dim", "1"]) == 2
        assert capsys.readouterr().err == "error: --dim must be at least 2\n"


# Runs the given code in a fresh interpreter, then prints which of the
# float libraries it loaded.
_FOOTPRINT = """
import runpy, sys
{code}
print("loaded=" + ",".join(m for m in ("numpy", "scipy", "mpmath") if m in sys.modules))
"""

# The body of `python -m almostabelian.cli <argv>`, kept in process.
_CLI = """
sys.argv = ["almostabelian"] + sys.argv[1:]
try:
    runpy.run_module("almostabelian.cli", run_name="__main__")
except SystemExit as e:
    assert e.code == 0, e.code
"""


def _loaded_after(code, *argv):
    src = str(Path(almostabelian.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT.format(code=code), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("loaded="), proc.stdout
    return proc.stdout, set(filter(None, last[len("loaded="):].split(",")))


class TestImportFootprint:
    """The exact engine runs without numpy, scipy or mpmath."""

    def test_package_import(self):
        assert _loaded_after("import almostabelian")[1] == set()

    @pytest.mark.parametrize("command", ["analyze", "reduce"])
    def test_exact_commands(self, specs, command):
        assert _loaded_after(_CLI, "--spec", specs["e2r2_mixed"], command)[1] == set()

    def test_numeric_mode_still_loads_numpy(self, specs):
        out, loaded = _loaded_after(
            _CLI, "--spec", specs["e2"], "--mode", "numeric", "exp", "1,0", "1"
        )
        assert out.startswith("[0.841")
        assert "numpy" in loaded

    def test_floor_of_an_irrational_coordinate(self):
        code = (
            "from almostabelian import GaussRational, TAU, multiplicity_function, "
            "quotient_chart, subgroup_from_data\n"
            "from almostabelian.jordan import group_element\n"
            "e2r2 = multiplicity_function({(GaussRational(0, 1), 1): 1, (GaussRational(0), 1): 2})\n"
            "n = subgroup_from_data(e2r2, [((0, 0, 1, 0), 0)])\n"
            "print(quotient_chart(e2r2, group_element(e2r2, (0, 0, TAU, 1), 0), n).v[2])"
        )
        out, loaded = _loaded_after(code)
        assert out.startswith("-6+tau")
        assert loaded == set()

    def test_oracle_names_resolve_on_use(self):
        out, loaded = _loaded_after(
            "from almostabelian import dense_expm\nprint(dense_expm([[0.0]])[0][0])"
        )
        assert out.startswith("1.0")
        assert {"numpy", "scipy"} <= loaded
        assert {"dense_expm", "exp_crosscheck"} <= set(almostabelian.__all__)
