"""Span tracing of the almostabelian modules, for the traced runs.

``Tracer.install`` replaces every public function of each package module,
the public methods of the classes defined there and the arithmetic
operators of the scalar classes with wrappers that record one span per
call: its name, start, end and the span open when it began.  Every name
that still holds an original is rebound too, in every package module
and in module-level dicts, so a name bound with ``from .x import y``
is traced wherever it is called from.  ``TauScalar.__init__`` is
counted, not spanned.  ``uninstall`` puts the originals back.

Spans stay in memory and are written out at the end.  The per-layer
figures come from them: a layer's calls, its inclusive time (spans with
no enclosing span of the same layer) and its self time (each span minus
its child spans).

Run as a script, it is the traced form of ``python -m almostabelian.cli``:

    python perfbench/tracing.py SPANS.json -- <cli arguments>
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = (
    "scalars", "linalg", "integers", "jordan", "expmap", "reps", "autos",
    "lattices", "subgroups", "oracle", "specfile", "cli",
)
ALL_LAYERS = ("import",) + LAYERS
SCALAR_CLASSES = ("TauScalar", "GaussRational")
ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__str__",
)
# linalg entry points that eliminate: cells = rows x cols of the matrix
ELIMINATION = ("rank", "solve_columns", "inverse", "nullspace", "row_space_basis")
RELATED = "lattices.related_by_aut_search"
CANDIDATE = "integers.det_int"


class Tracer:
    def __init__(self, package: str = "almostabelian"):
        self.package = package
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = {"tau_new": 0, "cells": 0}
        self._restore = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside the wrappers (package import)."""
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(start)
        self.end.append(end)

    def _wrap(self, name: str, fn, cells: bool = False):
        nid = self._id(name)
        names, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cells and args and args[0]:
                counts["cells"] += len(args[0]) * len(args[0][0])
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{self.package}.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    cells = layer == "linalg" and attr in ELIMINATION
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj, cells))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in [importlib.import_module(self.package), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        hit = wrapped.get(id(value))
                        if hit is not None and hit[0] is value:
                            obj[key] = hit[1]
                            self._restore.append((obj, key, value))

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if not inspect.isfunction(member):
                continue
            if attr == "__init__" and cls.__name__ == "TauScalar":
                self._set(cls, attr, self._counting_init(member))
            elif not attr.startswith("_") or (cls.__name__ in SCALAR_CLASSES and attr in ARITHMETIC):
                self._set(cls, attr, self._wrap(f"{layer}.{cls.__name__}.{attr}", member))

    def _counting_init(self, init):
        counts = self.counts

        @functools.wraps(init)
        def counted(self, *args, **kwargs):
            counts["tau_new"] += 1
            init(self, *args, **kwargs)

        return counted

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- output

    def dump(self) -> dict:
        origin = self.start[0] if self.start else 0.0
        return {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start_ns": [round((s - origin) * 1e9) for s in self.start],
            "end_ns": [round((e - origin) * 1e9) for e in self.end],
            "counts": self.counts,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh, separators=(",", ":"))


def aggregate(spans: dict) -> dict:
    """Per-layer calls, inclusive and self time (ms), and the counters."""
    names = spans["names"]
    layer_of = [ALL_LAYERS.index(n.split(".", 1)[0]) for n in names]
    related_id = names.index(RELATED) if RELATED in names else -1
    candidate_id = names.index(CANDIDATE) if CANDIDATE in names else -1
    name, parent = spans["name"], spans["parent"]
    start, end = spans["start_ns"], spans["end_ns"]
    n = len(name)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0] * n
    # mask[i]: layers of the spans enclosing i; under[i]: inside a search
    mask = [0] * n
    under = [False] * n
    calls = [0] * len(ALL_LAYERS)
    incl = [0] * len(ALL_LAYERS)
    self_ns = [0] * len(ALL_LAYERS)
    candidates = 0
    for i in range(n):
        p = parent[i]
        layer = layer_of[name[i]]
        if p >= 0:
            child[p] += dur[i]
            mask[i] = mask[p] | (1 << layer_of[name[p]])
            under[i] = under[p] or name[p] == related_id
        calls[layer] += 1
        if not mask[i] >> layer & 1:
            incl[layer] += dur[i]
        if name[i] == candidate_id and under[i]:
            candidates += 1
    for i in range(n):
        self_ns[layer_of[name[i]]] += dur[i] - child[i]
    out = {}
    for k, layer in enumerate(ALL_LAYERS):
        out[f"{layer}.calls"] = calls[k]
        out[f"{layer}.incl_ms"] = incl[k] / 1e6
        out[f"{layer}.self_ms"] = self_ns[k] / 1e6
    out["scalars.tau_new"] = spans["counts"]["tau_new"]
    out["linalg.cells"] = spans["counts"]["cells"]
    out["lattices.related_candidates"] = candidates
    return out


def merge(totals: dict, more: dict) -> dict:
    for key, value in more.items():
        totals[key] = totals.get(key, 0) + value
    return totals


def main(argv) -> int:
    """Traced CLI call: import, trace cli.main(argv), write the spans."""
    out_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json -- <cli arguments>")
    tracer = Tracer()
    t0 = time.perf_counter()
    cli = importlib.import_module("almostabelian.cli")
    tracer.add_span("import.almostabelian", t0, time.perf_counter())
    tracer.install()
    try:
        return cli.main(cli_argv)
    finally:
        tracer.uninstall()
        tracer.write(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
