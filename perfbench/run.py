"""Benchmark of the almostabelian library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: elements, decisions, linalg-growth, cli, or all (the four in
turn, each in a process of its own).  A run is a closed loop with one client: the
next operation starts when the previous one has returned, with no worker
threads; the cli workload starts one CLI process per call and waits for
it.  The seed fixes the operation list, so every run of a workload does
the same operations in the same number; a run repeats whole rounds of
that list for about S seconds.  Outputs are checked untimed: for the
in-process workloads, every timed round against an untimed warm-up round,
and the warm-up, after the timed rounds, against computations made apart
from the program; for the cli workload, every call.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics; with --trace 1 a fixed number of rounds runs
under the span tracer and the object holds the per-layer metrics.  A
summary line per workload comes before it; per-kind figures and the
spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from core import BENCH_DIR, OUT, ROOT, import_package, same  # noqa: E402

WORKLOADS = ("elements", "decisions", "linalg-growth", "cli")
MODULES = {"elements": "elements", "decisions": "decisions", "linalg-growth": "growth", "cli": "clicalls"}
# rounds of a traced run: a fixed count, so the counters repeat exactly
TRACE_ROUNDS = {"elements": 20, "decisions": 5, "linalg-growth": 5, "cli": 1}
SETUP_REPEATS = 3


def workload_module(name):
    return __import__(MODULES[name])


# ---------------------------------------------------------------------------
# the host's speed, measured beside the work


def _eliminate(rows) -> None:
    """Row-reduce a matrix of Fractions in place (the yardstick's work)."""
    for c in range(len(rows)):
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for i in range(len(rows)):
            if i != c:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]


class Yardstick:
    """The host's speed at each moment of a run, from a fixed piece of work.

    On a shared 2-vCPU virtual machine the speed drifts by a fifth and
    more over minutes, and the fastest moments of a run say little about
    the rest of it.  So a fixed pure-Python task -- Gaussian elimination of
    a 5 x 5 matrix of Fractions, the kind of work the program's scalars do
    -- is timed between operations, untimed itself, whenever SPACING_S of
    operations have passed since the last time.  Each operation's time is
    divided by the median of the last WINDOW yardstick times (the one just
    after it among them), so a slow spell slows both alike and cancels.
    Times are reported at the reference speed, where the yardstick takes
    REFERENCE_S.  The yardstick uses no part of the program, so a change to
    the program moves the metrics and not the scale.

    Operation and yardstick are timed in the thread's CPU time: on a
    shared host the wall clock also counts the moments the virtual
    processor is handed to other tenants, which come in bursts of tens of
    milliseconds.
    """

    SPACING_S = 0.01
    WINDOW = 3
    REFERENCE_S = 1e-3
    MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, (i + j) % 3 + 1) + (i == j) * 6 for j in range(5)]
              for i in range(5)]

    def __init__(self):
        self.times = []
        self.last = float("-inf")

    def start(self):
        return time.thread_time()

    def cost(self, started) -> float:
        """The CPU time since ``start`` returned ``started``."""
        return time.thread_time() - started

    def work(self) -> None:
        _eliminate([list(row) for row in self.MATRIX])

    def measure(self) -> None:
        started = self.start()
        self.work()
        self.times.append(self.cost(started))
        self.last = time.perf_counter()

    def between_ops(self) -> None:
        if time.perf_counter() - self.last >= self.SPACING_S:
            self.measure()

    def scale(self) -> float:
        """The yardstick time of the moment: the median of the last few."""
        return statistics.median(self.times[-self.WINDOW:])


class ChildYardstick(Yardstick):
    """The yardstick of work done in fresh processes: CLI calls, set-ups.

    A process's cost is most of all start-up and import, which an
    in-process yardstick tracks poorly, so this one is a fresh interpreter
    that imports numpy and scipy.linalg -- the libraries the program
    loads, and nothing of the program -- run by the same launcher after
    every call that ends SPACING_S or more after the last one.  Call and
    yardstick are timed in the child's CPU time, user and system, from
    wait4.
    """

    ARGS = ["-c", "import numpy, scipy.linalg"]
    SPACING_S = 1.5
    WINDOW = 2
    REFERENCE_S = 0.5

    def __init__(self, launcher):
        super().__init__()
        self.launcher = launcher

    def start(self):
        return None

    def cost(self, started) -> float:
        return self.launcher.last_cpu_s

    def work(self) -> None:
        if self.launcher.run(self.ARGS) != 0:
            raise RuntimeError("the yardstick process failed")


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter imports the package and builds the inputs


def setup_only(aa, name: str, seed: int) -> None:
    """What a run does before its first timed operation, once."""
    if name == "cli":
        workload_module(name).build(aa, seed, launcher=None)
        for path in sorted((BENCH_DIR / "specs").glob("*.spec")):
            try:
                aa.parse_spec_file(path)
            except aa.SpecError:
                pass
        return
    ops = workload_module(name).build(aa, seed)
    seen = set()
    for op in ops:
        family = re.sub(r"_n\d+$", "", op.kind)  # linalg sizes share one warm-up
        if family not in seen:
            seen.add(family)
            try:
                op.run()
            except Exception:
                pass


def setup_seconds(name: str, seed: int) -> list:
    """CPU times of SETUP_REPEATS fresh set-ups, each over the mean of the
    child yardstick times just before and after it."""
    from clicalls import Launcher

    launcher = Launcher()
    try:
        yardstick = ChildYardstick(launcher)
        yardstick.measure()
        times = []
        for _ in range(SETUP_REPEATS):
            args = [str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"]
            if launcher.run(args) != 0:
                raise SystemExit(f"error: the set-up of {name} failed")
            took = launcher.last_cpu_s
            yardstick.measure()
            times.append(took / statistics.fmean(yardstick.times[-2:]) * yardstick.REFERENCE_S)
    finally:
        launcher.close()
    return times


# ---------------------------------------------------------------------------
# running rounds


class Outcome:
    """Latencies, failures and check results of a run."""

    def __init__(self, size: int):
        self.latency = [[] for _ in range(size)]  # per operation of the round
        self.scaled = [[] for _ in range(size)]  # the same over the yardstick (timed rounds)
        self.round_times = []  # per round: the sum of its operations' times
        self.round_scaled = []  # per timed round: the sum of its scaled times
        self.peak_rss_kb = 0
        self.rounds = 0
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


def run_round(ops, outcome: Outcome, yardstick=None) -> list:
    results = []
    clock = time.perf_counter
    r0 = clock()
    busy = scaled = 0.0
    for i, op in enumerate(ops):
        t0 = clock()
        started = yardstick.start() if yardstick is not None else None
        try:
            result = op.run()
        except Exception as e:  # the failure is the outcome being measured
            result = e
        took = clock() - t0
        busy += took
        outcome.latency[i].append(took)
        results.append(result)
        if yardstick is not None:
            cost = yardstick.cost(started)
            yardstick.between_ops()
            cost = cost / yardstick.scale() * yardstick.REFERENCE_S
            scaled += cost
            outcome.scaled[i].append(cost)
    outcome.round_times.append(busy)
    if yardstick is not None:
        outcome.round_scaled.append(scaled)
    outcome.elapsed += clock() - r0
    outcome.rounds += 1
    outcome.attempted += len(ops)
    return results


def check_round(ops, results, reference, outcome: Outcome) -> None:
    """Count failures; check each result, or compare it with the checked one."""
    from clicalls import Missed
    from reference import CheckFailed

    for i, (op, result) in enumerate(zip(ops, results)):
        if isinstance(result, Exception):
            outcome.failed += 1
            if op.fault is None:
                outcome.error(f"{op.kind}: unexpected {type(result).__name__}: {result}")
            continue
        if reference is not None:
            if not same(result, reference[i]):
                outcome.error(f"{op.kind}: result differs from the warm-up round")
            continue
        try:
            op.check(result)
        except Missed:
            outcome.failed += 1
        except CheckFailed as e:
            outcome.error(f"{op.kind}: {e}")


def run_timed(ops, seconds: float, yardstick, in_process: bool = True) -> Outcome:
    outcome = Outcome(len(ops))
    reference = run_round(ops, Outcome(len(ops))) if in_process else None
    yardstick.measure()
    while True:
        results = run_round(ops, outcome, yardstick)
        check_round(ops, results, reference, outcome)
        # whole rounds only; stop when the next would end past the run's end
        if outcome.elapsed + outcome.elapsed / outcome.rounds / 2 >= seconds:
            break
    # the peak before the warm-up's checks load numpy and scipy for expm
    outcome.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if in_process:
        warm = Outcome(len(ops))
        check_round(ops, reference, None, warm)
        outcome.errors[:0] = warm.errors
    return outcome


def traced_cli_launcher(spans: list):
    import clicalls

    def launch(argv):
        path = OUT / f"cli-spans-{len(spans)}.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "tracing.py"), str(path), "--", *argv],
            cwd=ROOT, env=clicalls.cli_env(), capture_output=True, text=True, timeout=120,
        )
        spans.append(path)
        return proc.returncode, proc.stdout, proc.stderr

    return launch


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def plain_metrics(ops, outcome: Outcome, setup: list, rss_kb: int) -> dict:
    """End-to-end metrics at the yardstick's reference speed.

    Every time is a CPU time over the yardstick time of its moment (see
    Yardstick).  A round's time is the sum of its operations' scaled
    times, the garbage collector's pauses within them included;
    ``ops_per_s`` is a round's operations over the median round time.
    ``op_p50_ms`` is the median over the operations of each one's median
    time (an operation that comes more than once in a round takes its
    median over all its repeats), and ``setup_s`` the median set-up.
    """
    by_op = defaultdict(list)
    for op, times in zip(ops, outcome.scaled):
        by_op[id(op)].extend(times)
    per_op = [statistics.median(by_op[id(op)]) for op in ops]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": len(ops) / statistics.median(outcome.round_scaled), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(per_op) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def summary(name, ops, outcome: Outcome, yardstick=None) -> dict:
    """Figures printed beside the gated metrics: raw rates, tail, kinds."""
    times = [t for lat in outcome.latency for t in lat]
    numeric = [t for op, lat in zip(ops, outcome.latency) if op.numeric for t in lat]
    by_kind = defaultdict(list)
    for op, lat in zip(ops, outcome.latency):
        by_kind[op.kind].extend(lat)
    out = {
        "workload": name,
        "rounds": outcome.rounds,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "elapsed_s": round(outcome.elapsed, 3),
        "samples": len(times),
        "raw_ops_per_s": round(outcome.attempted / outcome.elapsed, 4),
        "round_ops_per_s": round(len(ops) / statistics.median(outcome.round_times), 4),
        "raw_op_p50_ms": round(statistics.median(times) * 1e3, 4),
    }
    if yardstick is not None:
        out["yardstick_ms"] = round(statistics.median(yardstick.times) * 1e3, 4)
    if len(times) >= 100:
        out["raw_op_p90_ms"] = round(percentile(times, 0.9) * 1e3, 4)
    if numeric:
        out["raw_numeric_op_p50_ms"] = round(statistics.median(numeric) * 1e3, 4)
    out["kind_p50_ms"] = {k: round(statistics.median(v) * 1e3, 4) for k, v in sorted(by_kind.items())}
    return out


# ---------------------------------------------------------------------------
# one workload


def run_plain(aa, name: str, seed: int, seconds: float):
    setup = setup_seconds(name, seed)
    if name != "cli":
        ops = workload_module(name).build(aa, seed)
        yardstick = Yardstick()
        outcome = run_timed(ops, seconds, yardstick)
        rss_kb = outcome.peak_rss_kb
    else:
        import clicalls

        launcher = clicalls.Launcher()
        try:
            ops = clicalls.build(aa, seed, launcher)
            yardstick = ChildYardstick(launcher)
            outcome = run_timed(ops, seconds, yardstick, in_process=False)
        finally:
            launcher.close()
        rss_kb = launcher.peak_kb  # the largest single CLI call
    return ops, outcome, plain_metrics(ops, outcome, setup, rss_kb), yardstick


def run_traced(aa, name: str, seed: int, import_span):
    import clicalls
    from probes import Probes, import_figures
    from tracing import Tracer, aggregate, merge

    mod = workload_module(name)
    cli_spans = []
    if name == "cli":
        ops = mod.build(aa, seed, launcher=traced_cli_launcher(cli_spans))
    else:
        ops = mod.build(aa, seed)
    outcome = Outcome(len(ops))
    reference = None
    if name != "cli":
        warm = Outcome(len(ops))
        reference = run_round(ops, warm)
        check_round(ops, reference, None, warm)
        outcome.errors.extend(warm.errors)
    probes = Probes(aa)
    figures = probes.measure()

    tracer = Tracer()
    tracer.add_span("import.almostabelian", *import_span)
    tracer.install()
    try:
        rounds = [run_round(ops, outcome) for _ in range(TRACE_ROUNDS[name])]
        probes.cover()
    finally:
        tracer.uninstall()
    for results in rounds:
        check_round(ops, results, reference, outcome)

    tracer.write(OUT / f"trace-{name}-{seed}.json")
    layers = aggregate(tracer.dump())
    for path in cli_spans:
        merge(layers, aggregate(json.loads(path.read_text())))
        path.unlink()
    layers.update(figures)
    layers.update(import_figures(clicalls.cli_env()))
    units = {"calls": "count", "tau_new": "count", "cells": "count", "related_candidates": "count"}
    metrics = {}
    for key, value in layers.items():
        suffix = key.rsplit(".", 1)[1]
        unit = units.get(suffix) or suffix.rsplit("_", 1)[1]
        metrics[key] = {"value": value, "unit": unit}
    return ops, outcome, metrics, None


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build the inputs and warm up once, then exit")
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    aa = import_package()
    import_span = (t0, time.perf_counter())
    if args.setup_only:
        setup_only(aa, args.workload, args.seed)
        return 0

    OUT.mkdir(exist_ok=True)
    name = args.workload
    if args.trace:
        ops, outcome, metrics, yardstick = run_traced(aa, name, args.seed, import_span)
    else:
        ops, outcome, metrics, yardstick = run_plain(aa, name, args.seed, args.seconds)
    info = summary(name, ops, outcome, yardstick)
    print(json.dumps({"summary": info, "metrics": metrics}))
    with open(OUT / f"result-{name}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"summary": info, "metrics": metrics, "errors": outcome.errors}, fh, indent=1)
    for message in outcome.errors:
        print(f"check failed [{name}]: {message}", file=sys.stderr)
    correct = not outcome.errors
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """The four workloads in turn, each in a process of its own, so that
    one workload's peak memory and imports do not carry into the next."""
    metrics = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"error: workload {name} ended with exit {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
