"""Spec file parsing: grammar, line numbers, section assembly."""

import pytest

from almostabelian.autos import HeisAut, identity_aut
from almostabelian.jordan import MAX_DIM
from almostabelian.scalars import TAU, GaussRational
from almostabelian.specfile import SpecError, parse_spec_file, parse_spec_text

FULL = """\
# rotation plus two flat directions
block i 1 1
block 0 1 2

lattice gen 0,0,1,0 0
lattice gen 0,0,0,1 1   # one full turn

subgroup case1 basis=0,0,1,tau
aut generic alpha=1 delta=1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1 gamma=0,0,0,0
"""


class TestParse:
    def test_full_file(self):
        spec = parse_spec_text(FULL)
        assert spec.aleph.dim == 4
        assert spec.aleph.multiplicity(GaussRational(0, 1), 1) == 1
        assert spec.lattice.rank == 2
        assert spec.lattice.generators[1].t == TAU
        assert spec.subgroup.case == 1
        assert spec.subgroup.basis[0][3] == TAU
        assert spec.aut == identity_aut(spec.aleph)

    def test_sections_optional(self):
        spec = parse_spec_text("block 0 2 1\n")
        assert spec.lattice is None and spec.subgroup is None and spec.aut is None

    def test_group_mandatory(self):
        with pytest.raises(SpecError, match="mandatory"):
            parse_spec_text("lattice gen 1,0 0\n")

    def test_degenerate_datum(self):
        with pytest.raises(SpecError):
            parse_spec_text("block 0 1 3\n")

    def test_case2(self):
        spec = parse_spec_text("block i 1 1\nsubgroup case2 basis= v0=1,0\n")
        assert spec.subgroup.case == 2
        assert spec.subgroup.basis == ()

    def test_heis_aut(self):
        spec = parse_spec_text("block 0 2 1\naut heis alpha=2 beta2=tau phi11=\n")
        assert spec.aut == HeisAut(alpha=2, beta2=TAU)
        assert spec.aut.matrix[2][1] == TAU

    def test_alpha_is_a_scalar_literal(self):
        spec = parse_spec_text("block 0 2 1\naut heis alpha=1+tau beta2=tau\n")
        assert spec.aut.alpha == 1 + TAU
        spec = parse_spec_text("block 0 2 1\naut generic alpha=(tau)/(2) delta=1,0;0,1\n")
        assert spec.aut.alpha == TAU / 2

    def test_file_io(self, tmp_path):
        path = tmp_path / "g.spec"
        path.write_text("block 1 1 1\n")
        spec = parse_spec_file(path)
        assert spec.aleph.dim == 1


class TestErrors:
    def test_unknown_directive_line(self):
        with pytest.raises(SpecError, match=r"<spec>:3: unknown directive 'bogus'"):
            parse_spec_text("block 0 2 1\n\nbogus 1\n")

    def test_bad_literal_line(self):
        with pytest.raises(SpecError, match=r":2:"):
            parse_spec_text("block 0 2 1\nlattice gen 1,zz 0\n")

    def test_zero_denominator_eigenvalue(self):
        with pytest.raises(SpecError, match=r"<spec>:1: invalid GaussRational literal '1/0i'"):
            parse_spec_text("block 1/0i 1 1\n")

    def test_unknown_key(self):
        with pytest.raises(SpecError, match="unknown key 'slope'"):
            parse_spec_text("block i 1 1\nsubgroup case1 basis=1,0 slope=2\n")

    def test_duplicate_block(self):
        with pytest.raises(SpecError, match="duplicate block"):
            parse_spec_text("block 0 2 1\nblock 0 2 2\n")

    def test_duplicate_subgroup(self):
        with pytest.raises(SpecError, match="duplicate subgroup"):
            parse_spec_text(
                "block i 1 1\nsubgroup case1 basis=\nsubgroup case1 basis=\n"
            )

    def test_case2_needs_v0(self):
        with pytest.raises(SpecError, match="v0"):
            parse_spec_text("block i 1 1\nsubgroup case2 basis=1,0\n")

    def test_time_needs_torsion(self):
        with pytest.raises(SpecError, match="nontrivial torsion"):
            parse_spec_text("block 0 2 1\nlattice gen 1,0 1\n")

    def test_generator_length(self):
        with pytest.raises(SpecError, match="coordinates"):
            parse_spec_text("block i 1 1\nlattice gen 1,0,0 0\n")

    def test_basis_row_length(self):
        with pytest.raises(SpecError, match="coordinates"):
            parse_spec_text("block i 1 1\nsubgroup case1 basis=1,0,0\n")

    @pytest.mark.parametrize("line", ["case1 basis=1,0,0", "case2 basis=1,0,0 v0=0,0,1"])
    def test_subgroup_must_be_j_invariant(self, line):
        with pytest.raises(SpecError, match=r"<spec>:3: J maps \(1, 0, 0\) outside the subspace"):
            parse_spec_text(f"block i 1 1\nblock 0 1 1\nsubgroup {line}\n")

    def test_delta_rows_match_dimension(self):
        with pytest.raises(SpecError, match=r"<spec>:2: delta has 3 rows, expected 2"):
            parse_spec_text("block i 1 1\naut generic alpha=1 delta=1,0,0;0,1,0;0,0,1\n")

    @pytest.mark.parametrize("delta", ["1,0,0,5;0,1,0;0,0,1", "1,0;0,1;0,0"])
    def test_delta_must_be_square(self, delta):
        with pytest.raises(SpecError, match=r"<spec>:3: delta must be a square matrix"):
            parse_spec_text(f"block 0 2 1\nblock 0 1 1\naut generic alpha=1 delta={delta}\n")

    def test_noncentral_generator_line(self):
        with pytest.raises(SpecError, match=r"<spec>:3: generator .* outside ker J"):
            parse_spec_text("block i 1 1\nlattice gen 0,0 1\nlattice gen 1,0 0\n")

    def test_dependent_generator_line(self):
        with pytest.raises(SpecError, match=r"<spec>:4: generators are linearly dependent"):
            parse_spec_text(
                "block i 1 1\nblock 0 1 1\nlattice gen 0,0,1 0\nlattice gen 0,0,2 0\n"
            )

    def test_aut_needs_alpha(self):
        with pytest.raises(SpecError, match="alpha"):
            parse_spec_text("block i 1 1\naut generic delta=1,0;0,1\n")

    @pytest.mark.parametrize("blocks", ["block i 1 1", "block 0 3 1\nblock 0 1 1"])
    def test_heis_aut_needs_heisenberg_extension(self, blocks):
        # on E(2), `aut heis alpha=1` would be the identity differential
        line = blocks.count("\n") + 2
        with pytest.raises(SpecError, match=rf"<spec>:{line}: ten-parameter automorphisms require"):
            parse_spec_text(f"{blocks}\naut heis alpha=1\n")

    def test_deeply_nested_literal_line(self):
        deep = "(" * 1200 + "1" + ")" * 1200
        with pytest.raises(SpecError, match=r"<spec>:2: TauScalar literal nests"):
            parse_spec_text(f"block 0 2 1\naut heis alpha={deep}\n")
        with pytest.raises(SpecError, match=r"<spec>:2: TauScalar literal nests"):
            parse_spec_text(f"block 0 2 1\nlattice gen {deep},0 0\n")

    def test_high_degree_literal_line(self):
        with pytest.raises(SpecError, match=r"<spec>:2: TauScalar literal .* exceeds degree 32"):
            parse_spec_text("block 0 2 1\naut heis alpha=(1+tau)^64\n")
        with pytest.raises(SpecError, match=r"<spec>:2: TauScalar literal .* exceeds degree 32"):
            parse_spec_text("block 0 2 1\nlattice gen tau^33,0 0\n")

    def test_large_literal_line(self):
        with pytest.raises(SpecError, match=r"<spec>:2: TauScalar literal .* exceeds 4096 bits"):
            parse_spec_text("block 0 2 1\naut heis alpha=3^10000000\n")
        with pytest.raises(SpecError, match=r"<spec>:3: TauScalar literal .* exceeds 4096 bits"):
            parse_spec_text("block 0 2 1\nblock 0 1 1\nlattice gen 0,0,7^1500 0\n")

    def test_dimension_ceiling_line(self):
        # the running dimension 2 + 2 + (MAX_DIM - 3) first passes the
        # ceiling on line 3
        text = f"block 0 2 1\nblock i 1 1\nblock 0 1 {MAX_DIM - 3}\nblock 1 1 1\n"
        with pytest.raises(SpecError, match=rf"<spec>:3: total dimension {MAX_DIM + 1} exceeds"):
            parse_spec_text(text)
        with pytest.raises(SpecError, match=r"<spec>:1: total dimension"):
            parse_spec_text("block 0 99999999999999999999 1\n")

    def test_block_arity(self):
        with pytest.raises(SpecError, match=r":1:"):
            parse_spec_text("block 0 2\n")
