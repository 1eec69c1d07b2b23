"""A snapshot of the CLI over a committed spec corpus.

Every subcommand but the oracle runs on every spec in ``tests/specs``,
plain, with ``--machine`` and with ``--mode numeric``, and ``related``
runs on every ordered pair of specs.  The exit code, stdout and stderr of
each in-process ``cli.main`` call must equal the row recorded in
``cli_corpus.json``, so a change that claims identical answers is
checked against every one of them.  After a deliberate change of output,
rewrite the fixture with ``python tests/test_cli_corpus.py`` and review
its diff.
"""

import contextlib
import io
import json
import os
from pathlib import Path

from almostabelian.cli import main

HERE = Path(__file__).parent
FIXTURE = HERE / "cli_corpus.json"
SPECS = sorted(p.stem for p in (HERE / "specs").glob("*.spec"))

VARIANTS = ([], ["--machine"], ["--mode", "numeric"])
V1 = ("1", "-1/2", "2", "1/3")
V2 = ("1/2", "1", "0", "-1")


def _spec_dim(name: str) -> int:
    """The group dimension read off the block lines (a wrong count only
    changes the recorded error)."""
    dim = 0
    for line in (HERE / "specs" / f"{name}.spec").read_text().splitlines():
        fields = line.split("#", 1)[0].split()
        if fields[:1] == ["block"] and len(fields) == 4 and fields[2].isdigit():
            dim += int(fields[2]) * int(fields[3]) * (2 if "i" in fields[1] else 1)
    return dim


def _commands(name: str) -> list:
    d = _spec_dim(name)
    v1, v2 = ",".join(V1[:d]), ",".join(V2[:d])
    return [
        ["analyze"],
        ["exp", v1, "tau/4"],
        ["mul", v1, "tau/4", v2, "1/3"],
        ["center-member", v1, "tau/4"],
        ["rep", "G", v1, "tau/4"],
        ["reduce"],
        ["normalize"],
        ["faithful"],
        ["closed"],
        ["aut", "validate"],
        ["aut", "apply", v1, "tau/4"],
        ["aut", "preserves"],
    ]


def corpus_calls() -> list:
    """Every argument list of the snapshot, paths relative to tests/."""
    calls = []
    for name in SPECS:
        for variant in VARIANTS:
            for command in _commands(name):
                calls.append(["--spec", f"specs/{name}.spec", *variant, *command])
    for name in SPECS:
        for other in SPECS:
            calls.append(["--spec", f"specs/{name}.spec", "related", "--other", f"specs/{other}.spec"])
    return calls


def run_call(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_corpus_snapshot(monkeypatch):
    monkeypatch.chdir(HERE)
    recorded = json.loads(FIXTURE.read_text())
    assert [row["argv"] for row in recorded] == corpus_calls()
    changed = [row["argv"] for row in recorded if run_call(row["argv"]) != row]
    assert not changed, f"{len(changed)} calls changed, first: {changed[:3]}"


if __name__ == "__main__":
    os.chdir(HERE)
    rows = [run_call(argv) for argv in corpus_calls()]
    FIXTURE.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {FIXTURE.name}")
