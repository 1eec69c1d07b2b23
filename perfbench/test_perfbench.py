"""Tests of the benchmark itself: every check rejects a wrong answer, the
tracer sees every layer and repeats its counts, and a short run of each
workload finishes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import clicalls  # noqa: E402
import decisions  # noqa: E402
import elements  # noqa: E402
import growth  # noqa: E402
import run  # noqa: E402
from core import BENCH_DIR, OUT, ROOT, Op, import_package  # noqa: E402
from probes import importtime_split  # noqa: E402
from reference import CheckFailed, at, poly_coeffs, split_literal  # noqa: E402
from tracing import Tracer, aggregate  # noqa: E402

aa = import_package()
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _ops(module, kind_prefix, seed=7):
    ops = [op for op in module.build(aa, seed) if op.kind.startswith(kind_prefix) and op.fault is None]
    assert ops, kind_prefix
    return ops


def _rejects(op, wrong):
    with pytest.raises(CheckFailed):
        op.check(wrong)


def _accepts(op):
    result = op.run()
    op.check(result)
    return result


# ---------------------------------------------------------------------------
# the reference computations


def test_literals_evaluate():
    assert poly_coeffs("1+1/2*tau-tau^3") == {0: 1, 1: Fraction(1, 2), 3: -1}
    assert split_literal("(1)/(tau)") == ({0: 1}, {1: 1})
    assert at("(3+tau)/(2)", Fraction(1)) == 2
    assert at(str(aa.TAU * aa.TAU / 3 - 1), Fraction(3)) == 2


def test_importtime_split_counts_each_root_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        30 |         40 |   scipy.linalg",
        "import time:         5 |        200 | almostabelian",
    ])
    split = importtime_split(text)
    assert split == {"almostabelian": 0.2, "numpy": 0.15, "scipy": 0.04}


# ---------------------------------------------------------------------------
# elements: perturbed exact and float results are rejected


def test_elements_checks_reject_perturbed_results():
    exp = _ops(elements, "exp_map")[1]
    g = _accepts(exp)
    _rejects(exp, type(g)(tuple(x + 1 for x in g.v), g.t))

    mul = _ops(elements, "group_mul")[0]
    gh = _accepts(mul)
    _rejects(mul, type(gh)(gh.v, gh.t + Fraction(1, 3)))

    for kind in ("group_rep_G", "apply_aut_generic", "apply_aut_heis", "quotient_rep"):
        op = _ops(elements, kind)[0]
        result = _accepts(op)
        if kind.startswith("apply"):
            wrong = type(result)((result.v[0] + 1,) + tuple(result.v[1:]), result.t)
        else:
            rows = [list(r) for r in result.entries]
            rows[1][0] = rows[1][0] + 2
            wrong = type(result)(tuple(tuple(r) for r in rows))
        _rejects(op, wrong)

    central = _ops(elements, "is_central")[0]
    _rejects(central, not _accepts(central))

    numeric = _ops(elements, "exp_map_numeric")[0]
    v, t = _accepts(numeric)
    _rejects(numeric, (np.asarray(v) + 1e-6, t))


def test_quarter_turn_faults_are_counted_not_checked():
    faults = [op for op in elements.build(aa, 7) if op.fault]
    assert len(faults) == 2
    for op in faults:
        with pytest.raises(aa.ExactnessUnavailable):
            op.run()


# ---------------------------------------------------------------------------
# decisions: flipped answers and forged certificates are rejected


def test_decisions_checks_reject_wrong_answers():
    for kind in ("lattice_equal", "is_quotient_subgroup_closed"):
        for op in _ops(decisions, kind):
            _rejects(op, not _accepts(op))

    for op in _ops(decisions, "has_faithful_quotient_rep"):
        decision = _accepts(op)
        _rejects(op, type(decision)(representable=not decision.representable))

    reduce_op = _ops(decisions, "reduce_generators")[0]
    reduced, a = _accepts(reduce_op)
    doubled = tuple(tuple(2 * x if i == 0 else x for i, x in enumerate(row)) for row in a)
    _rejects(reduce_op, (reduced, doubled))

    preserve = _ops(decisions, "preserves_lattice")[0]
    a = _accepts(preserve)
    _rejects(preserve, None if a is not None else ((1, 0), (0, 1)))

    searches = _ops(decisions, "related_by_aut_search_b1")
    unrelated, related = searches[0], searches[-1]
    delta, cert = _accepts(related)
    assert _accepts(unrelated) is None
    _rejects(unrelated, (delta, cert))
    _rejects(related, None)
    scaled = tuple(tuple(2 * x for x in row) for row in delta)
    _rejects(related, (scaled, cert))


# ---------------------------------------------------------------------------
# linalg-growth: perturbed inverse, solution, rank and kernel are rejected


def test_growth_checks_reject_wrong_results():
    inv = _ops(growth, "inverse_tau_n3")[0]
    m = [list(r) for r in _accepts(inv)]
    m[0][0] = m[0][0] + aa.TAU
    _rejects(inv, tuple(tuple(r) for r in m))

    solve = _ops(growth, "solve_rat_n4")[0]
    x = list(_accepts(solve))
    x[-1] = x[-1] + 1
    _rejects(solve, tuple(x))
    _rejects(solve, None)

    rank = _ops(growth, "rank_tau_n4")[0]
    _rejects(rank, _accepts(rank) + 1)

    null = _ops(growth, "nullspace_tau_n4")[0]
    basis = _accepts(null)
    _rejects(null, basis[:-1])
    bent = list(basis[0])
    bent[0] = bent[0] + 1
    _rejects(null, [tuple(bent)] + list(basis[1:]))


# ---------------------------------------------------------------------------
# cli: wrong exit code, wrong value and a traceback are rejected


def _cli(kind_prefix, index=0):
    ops = [op for op in clicalls.build(aa, 7, launcher=None) if op.kind == kind_prefix]
    return ops[index]


def test_cli_checks_reject_wrong_outcomes():
    closed = _cli("closed")
    closed.check((0, "closed\n", ""))
    _rejects(closed, (1, "closed\n", ""))
    _rejects(closed, (0, "closed\n", "Traceback (most recent call last):\n  ...\nValueError\n"))

    exp_e2 = _cli("exp", 1)
    argv = exp_e2.run.__defaults__[0]
    k = argv[-1].split("*")[0]
    exp_e2.check((0, f"v=0,0\nt={k}*tau\n", ""))
    _rejects(exp_e2, (0, f"v=0,1\nt={k}*tau\n", ""))
    _rejects(exp_e2, (0, f"v=0,0\nt={k}*tau+0\n", ""))  # does not print back the same


def test_cli_fault_calls_miss_until_exit_2_without_traceback():
    fault = next(op for op in clicalls.build(aa, 7, launcher=None) if op.fault)
    with pytest.raises(clicalls.Missed):
        fault.check((1, "", "Traceback (most recent call last):\nZeroDivisionError\n"))
    fault.check((2, "", "error: division by zero\n"))


def test_cli_peak_is_each_call_own():
    """A large child first, then a small one: the small one's figure is its own,
    and neither carries the memory of this (large) test process."""
    launcher = clicalls.Launcher(prefix=["-c"])
    try:
        touch = "b = bytearray(60_000_000); b[::4096] = b'x' * len(b[::4096])"
        assert launcher([touch])[0] == 0
        big_kb = launcher.last_kb
        assert launcher(["import sys; sys.exit(3)"])[0] == 3
        small_kb = launcher.last_kb
    finally:
        launcher.close()
    assert big_kb > 60_000 > 40_000 > small_kb and launcher.peak_kb == big_kb


def test_cli_launcher_reports_exit_and_output():
    launcher = clicalls.Launcher()
    try:
        rc, out, err = launcher(["--spec", clicalls.spec("e2"), "analyze"])
        cpu_s = launcher.last_cpu_s
        rc2, _, err2 = launcher(["--spec", clicalls.spec("bad_syntax"), "analyze"])
        spin = "import time\nt = time.process_time() + 0.3\nwhile time.process_time() < t: pass"
        assert launcher.run(["-c", spin]) == 0
        spin_s = launcher.last_cpu_s
    finally:
        launcher.close()
    assert rc == 0 and "t0 = tau" in out and not err and cpu_s > 0.01
    assert rc2 == 2 and err2.startswith("error:")
    assert 0.3 <= spin_s < 0.3 + cpu_s
    assert launcher.peak_kb > 0 and launcher.helper.returncode == 0


# ---------------------------------------------------------------------------
# the metrics and the set-up


class _FixedYardstick(run.Yardstick):
    """A yardstick that always reads ``speed``, with operations that cost 20 ms."""

    def __init__(self, speed):
        super().__init__()
        self.speed = speed

    def cost(self, started):
        return 0.02

    def measure(self):
        self.times.append(self.speed)
        self.last = run.time.perf_counter()


def test_rounds_divide_each_time_by_the_yardstick():
    op = Op("op", lambda: None, lambda result: None)
    outcome = run.Outcome(2)
    for speed in (1e-3, 2e-3):  # the reference host, then one twice as slow
        yardstick = _FixedYardstick(speed)
        yardstick.measure()
        run.run_round([op, op], outcome, yardstick)
    assert outcome.scaled == [[pytest.approx(0.02), pytest.approx(0.01)]] * 2
    assert outcome.round_scaled == [pytest.approx(0.04), pytest.approx(0.02)]


def test_metrics_take_medians_of_the_scaled_times():
    a, b = (Op(kind, None, None) for kind in "ab")
    outcome = run.Outcome(3)
    outcome.scaled = [[0.1, 0.1], [0.4, 0.4], [0.5, 0.5]]
    outcome.round_scaled = [1.0, 1.0, 4.0]
    metrics = run.plain_metrics([a, b, a], outcome, [1.0, 2.0, 4.0], 2048)
    assert metrics["ops_per_s"]["value"] == pytest.approx(3 / 1.0)
    # a comes twice a round and takes its median over both places: 0.1, 0.1, 0.5, 0.5
    assert metrics["op_p50_ms"]["value"] == pytest.approx(300)
    assert metrics["setup_s"]["value"] == pytest.approx(2.0)
    assert metrics["peak_rss_mb"]["value"] == 2


def test_building_inputs_loads_neither_numpy_nor_scipy():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import clicalls, core, decisions, elements, growth, reference; "
        "assert 'numpy' not in sys.modules and 'scipy' not in sys.modules, 'eager import'"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# tracing


def test_tracer_covers_from_imports_and_restores():
    original = aa.lattices.det_int
    tracer = Tracer()
    tracer.install()
    try:
        assert aa.lattices.det_int is not original
        assert aa.integers.det_int is aa.lattices.det_int
        aa.reduce_generators(aa.subgroup_from_data(
            aa.multiplicity_function({(aa.GaussRational(0, 1), 1): 1}), [((0, 0), aa.TAU)]))
    finally:
        tracer.uninstall()
    assert aa.lattices.det_int is original
    layers = aggregate(tracer.dump())
    assert layers["lattices.calls"] >= 1 and layers["scalars.tau_new"] > 0


def test_traced_counts_repeat_exactly():
    ops = elements.build(aa, 3)
    for op in ops:  # warm-up, as a traced run does
        try:
            op.run()
        except Exception:
            pass
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            for op in ops:
                try:
                    op.run()
                except aa.ExactnessUnavailable:
                    pass
        finally:
            tracer.uninstall()
        layers = aggregate(tracer.dump())
        counts.append({k: v for k, v in layers.items() if not k.endswith("_ms")})
    assert counts[0] == counts[1]
    assert counts[0]["scalars.tau_new"] > 0 and counts[0]["expmap.calls"] > 0


# ---------------------------------------------------------------------------
# whole runs


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", ["elements", "decisions", "linalg-growth", "cli"])
def test_short_run_finishes(workload):
    proc = _run("--workload", workload, "--seed", "2", "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_timed_rounds_keep_the_collector_and_a_yardstick_each():
    garbage = Op("garbage", lambda: [[i] for i in range(20_000)], lambda result: None)
    collections = []
    gc.callbacks.append(lambda phase, info: collections.append(phase))
    try:
        outcome = run.run_timed([garbage], 0.2, run.Yardstick())
    finally:
        gc.callbacks.pop()
    assert outcome.rounds > 1 and not outcome.errors and "start" in collections
    assert len(outcome.round_scaled) == len(outcome.round_times) == outcome.rounds
    assert all(t > 0 for t in outcome.round_scaled)


def test_all_runs_each_workload_apart():
    proc = _run("--workload", "all", "--seed", "2", "--seconds", "0.2", "--trace", "0", timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    names = {f"{w}.{m}" for w in run.WORKLOADS for m in ("setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb")}
    assert set(result["metrics"]) == names


def test_traced_run_reports_every_layer():
    proc = _run("--workload", "elements", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0, m["name"]


def test_fails_without_the_program():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "elements", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
