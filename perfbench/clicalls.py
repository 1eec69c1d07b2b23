"""Workload ``cli``: one `python -m almostabelian.cli` process per call.

Each round makes 23 calls over the spec corpus in ``specs/``: every
subcommand but the slow oracle runs (analyze, exp, mul, center-member,
rep, reduce, normalize, faithful, closed, aut, related, one short
expcheck oracle), with exit codes 0 and 1 both represented, and six
invalid inputs.  Five of those are kept as failures because the CLI
mishandles them today (the correct outcome is exit 2 with an ``error:``
line and no traceback); the sixth, a syntax error, is handled.  The seed
picks the element coordinates and times passed on the command line.

Every call is checked: the exit code, values that follow from theory
(E(2) is not exponential and has t0 = tau; a full turn forgets the
vector part; closed against dense), ``--machine`` values that parse back
through the package's literal grammar, and no traceback on stderr.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

from core import OUT, ROOT, SPECS, Op, Rng
from reference import TAU_POINTS, at, int_det, require

FAULTS = {
    "div_zero": "`exp 1,0 1/0` ends in a ZeroDivisionError traceback with exit 1",
    "noncentral": "`reduce` accepts the non-central lattice generator 1,0 on E(2) (exit 0)",
    "heis_aut": "`aut apply` applies the Heisenberg form on E(2), a non-Heisenberg group (exit 0)",
    "ragged": "`aut apply` drops the extra entry of a ragged delta without a word (exit 0)",
    "shape": "`aut apply` with a 3 x 2 delta ends in an IndexError traceback",
}


def spec(name: str) -> str:
    return str((SPECS / f"{name}.spec").relative_to(ROOT))


def cli_env() -> dict:
    """The environment for a CLI child: the checkout's src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# The helper that starts the CLI calls: a bare interpreter that spawns each
# command with stdout and stderr in the given files, waits for it, and
# answers "<exit code> <peak resident KiB> <CPU seconds, user + system>".
# On Linux a child's peak counts the memory of the process it was spawned
# from, so the calls are spawned from this small process rather than from
# the benchmark's.
HELPER = """
import json, os, signal, sys
out, err, timeout = sys.argv[1], sys.argv[2], int(sys.argv[3])
pid = 0
def expire(signum, frame):
    os.kill(pid, signal.SIGKILL)
signal.signal(signal.SIGALRM, expire)
for line in sys.stdin:
    cmd = json.loads(line)
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
    signal.alarm(timeout)
    _, status, usage = os.wait4(pid, 0)
    signal.alarm(0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_utime + usage.ru_stime, flush=True)
"""


class Launcher:
    """Runs ``python <prefix> argv`` one call at a time and waits for it.

    Each call's peak resident size and CPU time are its own, from wait4 in
    the helper; ``peak_kb`` keeps the largest peak of the calls, and
    ``last_cpu_s`` the CPU time of the last process the helper ran.
    ``close`` ends the helper.
    """

    def __init__(self, prefix=("-m", "almostabelian.cli"), timeout: int = 120):
        OUT.mkdir(exist_ok=True)
        self.prefix = list(prefix)
        self.out, self.err = OUT / "cli.stdout", OUT / "cli.stderr"
        self.helper = subprocess.Popen(
            [sys.executable, "-S", "-c", HELPER, str(self.out), str(self.err), str(timeout)],
            cwd=ROOT, env=cli_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.last_kb = self.peak_kb = 0
        self.last_cpu_s = 0.0

    def __call__(self, argv):
        rc = self.run([*self.prefix, *argv])
        self.peak_kb = max(self.peak_kb, self.last_kb)
        return rc, self.out.read_text(), self.err.read_text()

    def run(self, args) -> int:
        """Run ``python args`` and return its exit code; no peak is kept."""
        self.helper.stdin.write(json.dumps([sys.executable, *args]) + "\n")
        self.helper.stdin.flush()
        reply = self.helper.stdout.readline().split()
        if len(reply) != 3:
            raise RuntimeError(f"the CLI launcher ended (exit {self.helper.poll()})")
        rc, self.last_kb, self.last_cpu_s = int(reply[0]), int(reply[1]), float(reply[2])
        return rc

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.wait()
        self.helper.stdout.close()


def machine(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        require(sep == "=", f"--machine line without '=': {line!r}")
        pairs[key] = value
    return pairs


def build(aa, seed: int, launcher) -> list:
    """The round's calls; ``launcher(argv)`` returns (exit code, stdout, stderr)."""
    rng = Rng(seed)
    ops = []

    def call(kind, argv, check, fault=None):
        ops.append(Op(kind, lambda argv=argv: launcher(argv), _guard(check, fault), fault))

    def scalars(values):
        return [str(x) for x in values]

    # element arguments follow "--", since a coordinate may start with "-"

    # analyze: E(2) is not exponential (witness i) and has t0 = tau
    call("analyze", ["--spec", spec("e2"), "analyze"], _expect(0, _has(
        "dimension: 2 + 1", "exponential: no (witness i)", "t0 = tau")))

    # exp on heis: [v1 + t v2 / 2, v2 | t]
    v, t = [rng.frac() for _ in range(2)], rng.nonzero(6, 3)
    call("exp", ["--machine", "--spec", spec("heis"), "exp", "--", ",".join(scalars(v)), str(t)],
         _expect(0, _values(aa, v=[v[0] + t * v[1] / 2, v[1]], t=[t])))

    # exp on E(2) at a whole number of turns forgets the vector part
    v, k = [rng.nonzero() for _ in range(2)], rng.choice((-2, -1, 1, 2, 3))
    call("exp", ["--machine", "--spec", spec("e2"), "exp", "--", ",".join(scalars(v)), f"{k}*tau"],
         _expect(0, _values(aa, v=[0, 0], t=[("tau", k)])))

    # mul on heis x R: [v + e^{tJ} w, t + s], e^{tJ} w = (w1 + t w2, w2, w3)
    v, w = [rng.frac() for _ in range(3)], [rng.frac() for _ in range(3)]
    t, s = rng.frac(6, 3), rng.frac(6, 3)
    call("mul", ["--machine", "--spec", spec("heis_r"), "mul", "--", ",".join(scalars(v)), str(t),
                 ",".join(scalars(w)), str(s)],
         _expect(0, _values(aa, v=[v[0] + w[0] + t * w[1], v[1] + w[1], v[2] + w[2]], t=[t + s])))

    # [0, k tau] is central in E(2)
    call("center-member", ["--spec", spec("e2"), "center-member", "--", "0,0", f"{rng.choice((1, 2, -1))}*tau"],
         _expect(0, _has("central")))

    # rep G on heis: [[1, 0, 0], [v1, 1, t], [v2, 0, 1]]
    v, t = [rng.frac() for _ in range(2)], rng.frac(6, 3)
    call("rep", ["--machine", "--spec", spec("heis"), "rep", "G", "--", ",".join(scalars(v)), str(t)],
         _expect(0, _rows(aa, [[1, 0, 0], [v[0], 1, t], [v[1], 0, 1]])))
    v, t = [rng.frac() for _ in range(3)], rng.frac(6, 3)
    call("rep", ["--machine", "--spec", spec("heis_r"), "rep", "quotient", "--", ",".join(scalars(v)), str(t)],
         _expect(0, _values(aa, dimension=6)))

    # lattice normal forms of <(e3, 2 t0), (e4, 3 t0)>: surviving time gcd = t0
    call("reduce", ["--machine", "--spec", spec("e2_r2"), "reduce"], _expect(0, _reduced(aa)))
    call("normalize", ["--machine", "--spec", spec("e2_r2"), "normalize"], _expect(0, _normalized(aa)))

    # representability: a generator in [L, L] obstructs it
    call("faithful", ["--spec", spec("heis"), "faithful"],
         _expect(1, _has("no faithful quotient representation")))
    call("faithful", ["--machine", "--spec", spec("heis_r"), "faithful"],
         _expect(0, _values(aa, representable="yes", dimension=6)))

    # closed for a rational slope, dense for slope tau
    call("closed", ["--spec", spec("e2_r2"), "closed"], _expect(0, _has("closed")))
    call("closed", ["--spec", spec("e2_r2_dense"), "closed"], _expect(1, _has("dense")))

    # the reflection of E(2): [v1, -v2 | -t]
    v, t = [rng.frac() for _ in range(2)], rng.frac(6, 3)
    call("aut", ["--machine", "--spec", spec("e2"), "aut", "apply", "--", ",".join(scalars(v)), str(t)],
         _expect(0, _values(aa, v=[v[0], -v[1]], t=[-t])))

    # relatedness: the irrational direction is not found, the image is
    call("related", ["--spec", spec("heis_r_n"), "related", "--other", spec("heis_r_irr")],
         _expect(1, _has("not related within bound")))
    call("related", ["--machine", "--spec", spec("heis_r_n"), "related", "--other", spec("heis_r_img")],
         _expect(0, _certificate(aa)))

    call("oracle", ["--machine", "--spec", spec("heis_r"), "oracle", "expcheck", "--samples", "20"],
         _expect(0, _values(aa, passed="yes")))

    # invalid input: exit 2 with an error line and no traceback
    call("invalid", ["--spec", spec("e2"), "exp", "1,0", "1/0"], _rejected(), FAULTS["div_zero"])
    call("invalid", ["--spec", spec("bad_noncentral"), "reduce"], _rejected(), FAULTS["noncentral"])
    call("invalid", ["--spec", spec("bad_heis_aut"), "aut", "apply", "1,1", "1"], _rejected(),
         FAULTS["heis_aut"])
    call("invalid", ["--spec", spec("bad_ragged"), "aut", "apply", "1,1,1", "0"], _rejected(),
         FAULTS["ragged"])
    call("invalid", ["--spec", spec("bad_shape"), "aut", "apply", "1,1,1", "0"], _rejected(),
         FAULTS["shape"])
    call("invalid", ["--spec", spec("bad_syntax"), "analyze"],
         _rejected(f"{spec('bad_syntax')}:1:"))
    return ops


# ---------------------------------------------------------------------------
# checks on (exit code, stdout, stderr)


class Missed(Exception):
    """A known-fault call missed its correct outcome: counted as failed."""


def _guard(check, fault):
    """Checks of known-fault calls report a miss instead of a wrong answer."""
    if fault is None:
        return check

    def guarded(result):
        try:
            check(result)
        except AssertionError as e:
            raise Missed(str(e)) from None
    return guarded


def _no_traceback(err):
    require("Traceback" not in err, f"traceback on stderr: {err.strip().splitlines()[-1:]}")


def _expect(code, then):
    def check(result):
        rc, out, err = result
        _no_traceback(err)
        require(rc == code, f"exit {rc}, expected {code}; stderr {err.strip()[-200:]!r}")
        then(out)
    return check


def _rejected(where: str = ""):
    def check(result):
        rc, out, err = result
        _no_traceback(err)
        require(rc == 2, f"invalid input gave exit {rc}, expected 2")
        require(err.startswith("error:") and where in err, f"no error line naming {where!r}: {err!r}")
    return check


def _has(*needles):
    def check(out):
        for needle in needles:
            require(needle in out, f"{needle!r} missing from {out!r}")
    return check


def _parse_back(aa, text: str):
    """A printed scalar must re-parse to the value that prints the same."""
    require(str(aa.parse_tau(text)) == text, f"{text!r} does not parse back")
    return text


def _equal(text: str, expected) -> bool:
    """Whether a printed scalar equals an expected rational, or ("tau", k)."""
    for r in TAU_POINTS:
        want = expected[1] * r if isinstance(expected, tuple) else Fraction(expected)
        if at(text, r) != want:
            return False
    return True


def _values(aa, **expected):
    """--machine keys: lists are comma-separated scalars, others literal."""
    def check(out):
        pairs = machine(out)
        for key, want in expected.items():
            require(key in pairs, f"--machine output lacks {key}")
            if isinstance(want, list):
                got = [_parse_back(aa, x) for x in pairs[key].split(",")]
                require(len(got) == len(want) and all(_equal(g, w) for g, w in zip(got, want)),
                        f"{key}={pairs[key]}, expected {want}")
            else:
                require(pairs[key] == str(want), f"{key}={pairs[key]}, expected {want}")
    return check


def _rows(aa, expected):
    def check(out):
        pairs = machine(out)
        require(pairs.get("dimension") == str(len(expected)), "wrong representation dimension")
        for i, row in enumerate(expected):
            got = [_parse_back(aa, x) for x in pairs[f"row{i}"].split()]
            require(all(_equal(g, w) for g, w in zip(got, row)) and len(got) == len(row),
                    f"row{i}={pairs[f'row{i}']}, expected {row}")
    return check


def _reduced(aa):
    def check(out):
        pairs = machine(out)
        require(_equal(_parse_back(aa, pairs["gen0_t"]), ("tau", 1)), "surviving time is not t0")
        require(_equal(_parse_back(aa, pairs["gen1_t"]), 0), "second time is not 0")
        a = [[int(_parse_back(aa, x)) for x in row.split(",")] for row in pairs["a"].split(";")]
        require(abs(int_det(a)) == 1, f"A = {a} is not unimodular")
    return check


def _normalized(aa):
    def check(out):
        pairs = machine(out)
        for i in range(2):
            v = [_parse_back(aa, x) for x in pairs[f"gen{i}_v"].split(",")]
            t = _parse_back(aa, pairs[f"gen{i}_t"])
            require(all(x == "0" for x in v) or (t == "0" and v[0] == v[1] == "0"),
                    f"normalized generator {i} is neither pure time nor in ker J")
    return check


def _certificate(aa):
    n = aa.reduce_generators(aa.parse_spec_file(ROOT / spec("heis_r_n")).lattice)[0]
    m = aa.reduce_generators(aa.parse_spec_file(ROOT / spec("heis_r_img")).lattice)[0]

    def check(out):
        pairs = machine(out)
        require(pairs.get("related") == "yes", "an automorphic image was not found")
        delta = [[aa.parse_tau(_parse_back(aa, x)) for x in row.split(",")]
                 for row in pairs["delta_tilde"].split(";")]
        a = [[int(_parse_back(aa, x)) for x in row.split(",")] for row in pairs["a"].split(";")]
        require(aa.related_by_aut_check(n, m, delta, a), "certificate fails related_by_aut_check")
    return check
