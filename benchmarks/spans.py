"""In-memory spans around every call into galilei21's layers.

The tracer replaces each public function of the layer modules, as a
module attribute, with a wrapper that records one span per call:
(name, start, end, parent, report id).  Functions look their callees up
as module globals, so calls between functions of one layer are caught
too.  Nothing in the package itself changes.

A span's self time is its duration minus the time covered by its child
spans, minus the tracer's own cost: ``calibrate`` times an empty wrapped
function to find what a span costs inside its clocks (charged to the
span) and outside them (charged to its parent), and ``summary`` takes
both off.  A layer's self time is the sum over the spans of its
functions.  The work counters run inside the span they count, so the
three counted functions keep the (small) cost of counting.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import types
from array import array

import numpy as np

LAYERS = ("algebra", "enveloping", "group", "contraction", "cli")


def _empty(a, b):
    """The calibration target: a call that does nothing with two arguments."""


# Work counters, measured from a call's arguments.  Each hook takes the
# function's arguments and returns (positional args to call with, counts).
def _no_mul_work(alg, p, q):
    return (alg, p, q), {"term_pairs": len(p.terms) * len(q.terms)}


def _nullspace_work(rows, ncols):
    rows = list(rows)  # may be a one-shot view; the call gets the same rows
    return (rows, ncols), {"rows": len(rows), "cols": ncols}


def _grid_work(experiment, c_grid):
    return (experiment, c_grid), {"grid_points": len(c_grid)}


WORK_COUNTERS = {
    "enveloping.no_mul": _no_mul_work,
    "enveloping.exact_nullspace": _nullspace_work,
    "contraction.convergence_study": _grid_work,
}


class Tracer:
    """Collects spans for one process; ``install`` starts recording."""

    def __init__(self):
        self.keys: list[str] = []  # span name ids index this list
        # one entry per span, in start order; arrays keep a span at 28 bytes
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.report = array("i")
        self.counts: dict[str, int] = {}
        self.report_id = -1
        self._stack: list[int] = []
        # tracing cost per span, in ns, inside and outside its clocks
        self.cost_ns = {"inside": 0.0, "outside": 0.0}

    def calibrate(self, rounds: int = 5, calls: int = 100_000) -> None:
        """Measure ``cost_ns`` with a throwaway tracer around an empty function.

        Per call: ``loop`` is the bare loop, ``bare`` adds a call of the
        empty function, ``wrapped`` calls it through the wrapper, and
        ``span`` is the recorded span.  The span holds the empty call plus
        the cost inside the clocks; the rest of the wrapped call's extra
        cost over a bare one falls outside.  Medians over the rounds.
        """
        clock = time.perf_counter_ns
        inside, outside = [], []
        for _ in range(rounds):
            probe = Tracer()
            wrapped = probe._wrap(_empty, "calibration")
            t0 = clock()
            for _ in range(calls):
                pass
            t1 = clock()
            for _ in range(calls):
                _empty(1.0, 2.0)
            t2 = clock()
            for _ in range(calls):
                wrapped(1.0, 2.0)
            t3 = clock()
            loop, bare, total = (t1 - t0) / calls, (t2 - t1) / calls, (t3 - t2) / calls
            span = float(np.median(np.frombuffer(probe.end, dtype=np.int64)
                                   - np.frombuffer(probe.start, dtype=np.int64)))
            inside.append(span - (bare - loop))
            outside.append((total - bare) - inside[-1])
        self.cost_ns = {"inside": statistics.median(inside), "outside": statistics.median(outside)}

    def install(self, package: str) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__.removeprefix(package + ".")
                if home not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{home}.{obj.__name__}")
                setattr(module, attr, wrappers[id(obj)])

    def _wrap(self, fn, key: str):
        key_id = len(self.keys)
        self.keys.append(key)
        work = WORK_COUNTERS.get(key)
        counts = self.counts
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(key_id)
            self.parent.append(stack[-1] if stack else -1)
            self.report.append(self.report_id)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                if work is not None:
                    args, done = work(*args, **kwargs)
                    kwargs = {}
                    for name, n in done.items():
                        counts[f"{key}.{name}"] = counts.get(f"{key}.{name}", 0) + n
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def summary(self) -> dict:
        """Per-function calls and self time, per-layer self time, and work counts.

        Self time excludes the calibrated tracing cost: ``inside`` for the
        span itself and ``outside`` for each of its direct children.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        children = np.bincount(parent[nested], minlength=len(dur))
        own = dur - covered - self.cost_ns["inside"] - children * self.cost_ns["outside"]
        calls = np.bincount(name, minlength=len(self.keys))
        self_ns = np.bincount(name, weights=own, minlength=len(self.keys))
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for key_id, key in enumerate(self.keys):
            out[f"{key}.calls"] = int(calls[key_id])
            out[f"{key}.self_s"] = float(self_ns[key_id]) * 1e-9
            out[f"{key.partition('.')[0]}.self_s"] += float(self_ns[key_id]) * 1e-9
        out.update(self.counts)
        return out

    def write(self, path: str) -> None:
        """Write every span (times in ns on the process clock) as a compressed .npz."""
        np.savez_compressed(
            path,
            names=np.array(self.keys),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            report=np.frombuffer(self.report, dtype=np.int32),
        )
