"""Spans recorded around calls into the softsets layers.

The tracer never edits the package.  It replaces module attributes of
``softsets.algebra``, ``.laws``, ``.expr``, ``.workspace`` and ``.cli``
with timing wrappers, and the benchmark wraps each law's ``check``
through a ``Law`` copy.  Code inside the package that looks a function
up through its module (``algebra.union(...)``, ``shrink(...)``) then
reaches the wrapper; references bound before the wraps went in do not,
which is why ``law_catalog()`` is rebuilt after installing them.

Spans stay in memory as parallel arrays (name, parent, op id, start,
end) until the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

from softsets import algebra, cli, expr, laws, workspace

ROOT = -1  # parent index of an op's root span

LAYERS = ("algebra", "laws", "expr", "workspace", "model", "cli")

# (module, attribute, span name, time only the outermost call)
ENTRY_POINTS = (
    *((algebra, fn, "algebra." + fn, False) for fn in algebra.__all__),
    (laws, "check_exhaustive", "laws.enumerate", False),
    (laws, "check_random", "laws.generate", False),
    (laws, "shrink", "laws.shrink", False),
    (expr, "tokenize", "expr.tokenize", False),
    (expr, "parse", "expr.parse", True),
    (expr, "evaluate", "expr.evaluate", True),
    (workspace, "load_workspace", "workspace.load", False),
    (workspace, "render_workspace", "workspace.render", False),
    (workspace, "render_soft_set", "workspace.render", False),
    (workspace, "soft_set", "model.soft_set", False),
    (cli, "load_workspace", "workspace.load", False),
    (cli, "render_soft_set", "workspace.render", False),
    (cli, "render_workspace", "workspace.render", False),
    (cli, "main", "cli.main", False),
)

OP = "op"
CHECK = "laws.check"
SHRINK = "laws.shrink"


class Tracer:
    """Records spans while an op is open; passes calls straight through
    otherwise, so checking outputs after an op adds no spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [ROOT]
        self._active: dict[int, int] = {}
        self._op_id = -1
        self._installed: list[tuple[object, str, object]] = []
        self.errors = dict.fromkeys(LAYERS, 0)
        self.shrink_candidates = 0
        self.shrink_accepted = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(i)
        return i

    def _layer_error(self, i: int) -> None:
        # Count an exception once, where it leaves its layer.
        layer = self.names[self.name[i]].split(".")[0]
        p = self.parent[i]
        if p == ROOT or self.names[self.name[p]].split(".")[0] != layer:
            self.errors[layer] += 1

    def wrap(self, fn, name: str, outermost: bool = False):
        """Time ``fn`` as span ``name``.  With ``outermost`` a recursive
        entry is timed only at its outermost call."""
        nid = self._id(name)
        shrink_id = self._id(SHRINK)
        # A law check made directly under a shrink span tries one
        # candidate reduction, accepted when it returns a violation.
        shrink_candidate = name == CHECK
        self._active[nid] = 0
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op_id < 0 or (outermost and self._active[nid]):
                return fn(*args, **kwargs)
            i = self._open(nid)
            self._active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[i] = clock()
                self._layer_error(i)
                raise
            else:
                self.end[i] = clock()
                if shrink_candidate and self.parent[i] != ROOT and self.name[self.parent[i]] == shrink_id:
                    self.shrink_candidates += 1
                    self.shrink_accepted += result is not None
                return result
            finally:
                self.start[i] = t0
                self._active[nid] -= 1
                self._stack.pop()

        return traced

    def wrap_check(self, check):
        """Time a law's ``check`` as span ``laws.check``."""
        return self.wrap(check, CHECK)

    def install(self) -> None:
        for module, attr, name, outermost in ENTRY_POINTS:
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, outermost))
        laws.law_catalog.cache_clear()  # rebind the catalog to the wraps

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)
        laws.law_catalog.cache_clear()

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._open(self._id(OP))
        self.start[-1] = time.perf_counter_ns()

    def end_op(self) -> None:
        i = self._stack.pop()
        self.end[i] = time.perf_counter_ns()
        self._op_id = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time in ns: duration minus direct children."""
    duration = spans["end"] - spans["start"]
    own = duration.copy()
    child = spans["parent"] != ROOT
    np.subtract.at(own, spans["parent"][child], duration[child])
    return own


def totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls, inclusive ns and self ns per span name, over the run."""
    spans = tracer.arrays()
    n = len(tracer.names)
    calls = np.bincount(spans["name"], minlength=n)
    inclusive = np.bincount(spans["name"], weights=spans["end"] - spans["start"], minlength=n)
    own = np.bincount(spans["name"], weights=self_times(spans), minlength=n)
    return {
        name: {"calls": int(calls[i]), "ns": float(inclusive[i]), "self_ns": float(own[i])}
        for i, name in enumerate(tracer.names)
    }
