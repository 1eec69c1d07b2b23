"""Reference figures for the traced runs: fixed inputs, timed untraced.

Each figure times one layer's operation on inputs that do not depend on
the seed: scalar arithmetic against ``Fraction * Fraction`` measured in
the same process, linalg at fixed sizes, the per-element kernels on
heis x R, the lattice decisions of acceptance criteria 5 and 8, an
in-process CLI call, a spec parse, and the start-up split read from
``python -X importtime``.  ``cover`` runs every probe once more under
the tracer, so each layer has spans in every traced run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from core import ROOT, Rng
from growth import deficient, full_rank, program_matrix

SEED = 0x5EED


def _per_call(fn, loops: int, repeats: int) -> float:
    """Median over repeats of the mean time per call, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        times.append((time.perf_counter() - t0) / loops)
    return statistics.median(times)


class Probes:
    """The probe operations, each (metric name, scale, loops, repeats, fn)."""

    def __init__(self, aa):
        T = aa.TauScalar
        G = aa.GaussRational
        rng = Rng(SEED)
        la = aa.linalg

        a, b = Fraction(3, 7), Fraction(5, 11)
        ra, rb = T(a), T(b)
        pa, pb = T((1, 2, 3)), T((4, -1))
        fa, fb = T((1, 1), (2, -1)), T((3, 0, 1), (1, 2))

        inv4 = program_matrix(aa, full_rank(rng, "tau", 4))
        inv6 = program_matrix(aa, full_rank(rng, "tau", 6))
        inv10 = program_matrix(aa, full_rank(rng, "rat", 10))
        rank6 = program_matrix(aa, full_rank(rng, "tau", 6))
        null6 = program_matrix(aa, deficient(rng, "tau", 6, 4))

        heis_r = aa.multiplicity_function({(G(0), 2): 1, (G(0), 1): 1})
        x = aa.algebra_element(heis_r, (Fraction(1, 2), 3, Fraction(-2, 3)), Fraction(5, 3))
        g = aa.group_element(heis_r, (Fraction(1, 2), 3, Fraction(-2, 3)), Fraction(5, 3))
        h = aa.group_element(heis_r, (1, Fraction(1, 3), 2), Fraction(-1, 2))
        phi = aa.GenericAut(((2, 1, 0), (0, 2, 0), (0, 0, 1)), (1, Fraction(1, 2), 3), 1)
        decision = aa.has_faithful_quotient_rep(heis_r, aa.subgroup_from_data(heis_r, [((0, 0, 1), 0)]))

        # the related pair of the decisions workload, at bound 1
        n = aa.subgroup_from_data(heis_r, [((0, 0, 1), 0), ((1, 0, 0), 0)])
        m = aa.subgroup_from_data(heis_r, [((0, 0, 1), 0), ((1, 0, aa.TAU), 0)])
        # acceptance criteria 5 and 8 on E(2) x R^2
        e2_r2 = aa.multiplicity_function({(G(0, 1), 1): 1, (G(0), 1): 2})
        crit5 = aa.subgroup_from_data(e2_r2, [((0, 0, 1, 0), 2 * aa.TAU), ((0, 0, 0, 1), 3 * aa.TAU)])
        crit8 = aa.subgroup_from_data(e2_r2, [((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0)])
        dense = aa.ConnectedSubgroupSpec(e2_r2, ((0, 0, 1, aa.TAU),))
        spec_path = ROOT / "perfbench" / "specs" / "e2_r2.spec"
        cli_argv = ["--spec", str(ROOT / "perfbench" / "specs" / "e2.spec"), "analyze"]

        cli = importlib.import_module(f"{aa.__name__}.cli")

        def cli_main():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(cli_argv)

        us, ms = 1e6, 1e3
        self.figures = [
            ("scalars.fraction_mul_us", us, 2000, 5, lambda: a * b),
            ("scalars.rat_add_us", us, 500, 5, lambda: ra + rb),
            ("scalars.poly_mul_us", us, 300, 5, lambda: pa * pb),
            ("scalars.ratfn_mul_us", us, 200, 5, lambda: fa * fb),
            ("linalg.inverse_tau_n4_ms", ms, 1, 3, lambda: la.inverse(inv4)),
            ("linalg.inverse_tau_n6_ms", ms, 1, 3, lambda: la.inverse(inv6)),
            ("linalg.inverse_rat_n10_ms", ms, 1, 3, lambda: la.inverse(inv10)),
            ("linalg.rank_tau_n6_ms", ms, 1, 3, lambda: la.rank(rank6)),
            ("linalg.nullspace_tau_n6_ms", ms, 1, 3, lambda: la.nullspace(null6)),
            ("expmap.exp_map_us", us, 50, 5, lambda: aa.exp_map(heis_r, x)),
            ("expmap.exp_map_numeric_us", us, 200, 5, lambda: aa.exp_map(heis_r, x, mode="numeric")),
            ("jordan.group_mul_us", us, 50, 5, lambda: aa.group_mul(heis_r, g, h)),
            ("reps.group_rep_G_us", us, 50, 5, lambda: aa.group_rep_G(heis_r, g)),
            ("reps.quotient_rep_us", us, 20, 5, lambda: decision.rep.matrix(g)),
            ("autos.apply_aut_us", us, 50, 5, lambda: aa.apply_aut(heis_r, phi, g)),
            ("autos.apply_aut_numeric_us", us, 200, 5, lambda: aa.apply_aut(heis_r, phi, g, mode="numeric")),
            ("lattices.related_ms", ms, 1, 3, lambda: aa.related_by_aut_search(n, m, 1)),
            ("lattices.reduce_ms", ms, 5, 5, lambda: aa.reduce_generators(crit5)),
            ("lattices.faithful_ms", ms, 2, 5, lambda: aa.has_faithful_quotient_rep(e2_r2, crit5)),
            ("subgroups.closed_ms", ms, 2, 5, lambda: aa.is_quotient_subgroup_closed(e2_r2, dense, crit8)),
            ("cli.main_ms", ms, 1, 5, cli_main),
            ("specfile.parse_ms", ms, 10, 5, lambda: aa.parse_spec_file(spec_path)),
        ]
        # only for coverage: the oracle layer has no figure of its own
        self.extra = [lambda: aa.exp_crosscheck(heis_r, 5)]

    def measure(self) -> dict:
        return {name: _per_call(fn, loops, repeats) * scale
                for name, scale, loops, repeats, fn in self.figures}

    def cover(self) -> None:
        for *_, fn in self.figures:
            fn()
        for fn in self.extra:
            fn()


# ---------------------------------------------------------------------------
# interpreter start-up and the import split


def _wall(cmd, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def importtime_split(stderr: str) -> dict:
    """Cumulative import time (ms) of the package, numpy and scipy.

    ``-X importtime`` prints each module after the ones it imported, its
    nesting shown by indentation.  A package's figure sums the entries of
    its root that no other entry of the same root encloses.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        level = (len(name) - len(name.lstrip())) // 2
        entries.append((level, name.strip().split(".")[0], int(cumulative)))
    totals = {}
    stack = []  # enclosing entries, walking from the outermost in
    for level, root, cum in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        if all(r != root for _, r in stack):
            totals[root] = totals.get(root, 0) + cum
        stack.append((level, root))
    return {k: v / 1e3 for k, v in totals.items()}


def import_figures(env, repeats: int = 3) -> dict:
    bare = statistics.median(_wall([sys.executable, "-c", "pass"], env) for _ in range(repeats))
    splits = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import almostabelian"],
            env=env, cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
        )
        splits.append(importtime_split(proc.stderr))
    med = {key: statistics.median(s.get(key, 0.0) for s in splits)
           for key in ("almostabelian", "numpy", "scipy")}
    return {
        "import.bare_python_ms": bare * 1e3,
        "import.package_ms": med["almostabelian"],
        "import.numpy_ms": med["numpy"],
        "import.scipy_ms": med["scipy"],
    }
