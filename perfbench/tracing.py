"""Spans around degenpde's public functions, installed from outside `src/`.

A traced worker wraps the functions below after `import degenpde` and
before the workload's first CLI call.  Each call records a span (id,
name, start, end, parent, run id, tags); spans stay in memory and are
written as JSON lines when the iteration ends.  `per_layer` turns the
spans of one iteration into the per-layer metrics.

A function imported by name into another module (`cli` and
`verification` import `solve_cauchy`, `apply_discrete_operator`,
`manufactured_problem`, ...) is replaced there too: every loaded
`degenpde` module attribute that is the original object gets the
wrapper.  A name that no longer exists is reported and skipped, so the
benchmark keeps running when a later change removes it.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

LADDER = (65, 129, 257)

# (module, function, span name): plain functions.
FUNCTIONS = [
    ("degenpde.solver", "discretize_operator", "solver.assemble"),
    ("degenpde.solver", "monotonicity_certificate", "solver.certify"),
    ("degenpde.solver", "solve_cauchy", "solver.solve"),
    ("degenpde.solver", "apply_discrete_operator", "solver.apply_operator"),
    ("degenpde.solver", "manufactured_problem", "analytic.manufactured"),
    ("degenpde.solver", "operator_apply", "analytic.operator_apply"),
    ("degenpde.metrics", "seminorm", "metrics.seminorm"),
    ("degenpde.reduction", "build_reduction_plan", "reduction.plan"),
    ("degenpde.verification", "maximum_principle_suite", "verification.suite"),
    ("degenpde.verification", "absolute_bound_suite", "verification.suite"),
    ("degenpde.verification", "weighted_bound_suite", "verification.suite"),
    ("degenpde.gridio", "save_grid_function", "gridio.save"),
]

# (module, class, methods, span name): methods wrapped on the class.
METHODS = [
    ("degenpde.analytic", "AnalyticFunction", ("value", "dt", "dx", "dxx"),
     "analytic.eval"),
    ("degenpde.fields", "CoefficientField", ("a", "b", "c"),
     "fields.coeff_eval"),
    ("degenpde.grid", "GridFunction",
     ("time_derivative", "derivative", "second_derivative"), "grid.fd"),
    ("degenpde.reduction", "ReductionPlan", ("transform_analytic",),
     "reduction.transform"),
    ("degenpde.reduction", "ReductionPlan", ("recover_grid_function",),
     "reduction.recover"),
]

# sympy.lambdify is counted only when called from these modules.
LAMBDIFY_CALLERS = ("degenpde.analytic", "degenpde.fields")


def _grid_n(bound):
    grid = bound.arguments.get("grid")
    return {"n": int(grid.shape[0])} if grid is not None else {}


def _note_assemble(bound, result):
    tags = _grid_n(bound)
    tags["nnz"] = int(result[0].nnz)
    return tags


def _note_pairs(bound, result):
    return {"pairs": int(result.n_pairs)}


def _note_save(bound, result):
    gf = bound.arguments["gf"]
    return {"n": int(gf.grid.shape[0]),
            "bytes": os.path.getsize(bound.arguments["path"])}


NOTES = {
    "solver.assemble": _note_assemble,
    "solver.solve": lambda bound, result: _grid_n(bound),
    "metrics.seminorm": _note_pairs,
    "gridio.save": _note_save,
}


class Tracer:
    """In-memory span recorder for one worker iteration."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.missing = []
        self._next = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        # Spans opened by a thread with no open span of its own (the
        # `run` command's pool) hang under the current step span.
        self._root = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        parent = stack[-1] if stack else self._root
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, tags, end=None):
        if end is None:
            end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append((sid, name, start, end, parent, tags))

    def step(self, name, fn, *args):
        """Run fn(*args) under a root span named step.<name>."""
        sid, parent = self._open()
        self._root = sid
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._root = None
            self._close(sid, parent, "step." + name, start, None)

    def wrap(self, fn, name, note=None, caller_filter=None):
        sig = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if caller_filter is not None and not caller_filter():
                return fn(*args, **kwargs)
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, name, start, {"raised": True})
                raise
            end = time.perf_counter()
            tags = None
            if note is not None:
                # A failing note must not change what the program does.
                try:
                    tags = note(sig.bind(*args, **kwargs), result)
                except Exception as exc:
                    tags = {"note_error": repr(exc)}
            self._close(sid, parent, name, start, tags, end)
            return result

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, tags in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid,
                                     "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "tags": tags}) + "\n")


def _replace_everywhere(original, wrapper):
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "degenpde"
                               or modname.startswith("degenpde.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer):
    """Wrap degenpde's public functions; call after `import degenpde.cli`."""
    import sympy

    for modname, attr, name in FUNCTIONS:
        fn = getattr(sys.modules.get(modname), attr, None)
        if fn is None:
            tracer.missing.append("%s.%s" % (modname, attr))
            continue
        _replace_everywhere(fn, tracer.wrap(fn, name, NOTES.get(name)))
    for modname, clsname, methods, name in METHODS:
        cls = getattr(sys.modules.get(modname), clsname, None)
        for meth in methods:
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                tracer.missing.append("%s.%s.%s" % (modname, clsname, meth))
                continue
            setattr(cls, meth, tracer.wrap(fn, name))
    cli = sys.modules["degenpde.cli"]
    for kind, fn in list(cli.EXPERIMENTS.items()):
        cli.EXPERIMENTS[kind] = tracer.wrap(fn, "cli." + kind)

    def from_degenpde():
        caller = sys._getframe(2).f_globals.get("__name__")
        return caller in LAMBDIFY_CALLERS

    sympy.lambdify = tracer.wrap(sympy.lambdify, "analytic.lambdify",
                                 caller_filter=from_degenpde)


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def per_layer(spans, experiments):
    """Per-layer metrics of one iteration's spans.

    `_s` metrics are inclusive time, counting a span only when no
    ancestor has the same name (recursion is not counted twice);
    `_self_s` metrics subtract the time of direct child spans.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def outermost(names):
        total = 0.0
        for s in spans:
            if s["name"] not in names:
                continue
            p = s["parent"]
            while p is not None and by_id[p]["name"] not in names:
                p = by_id[p]["parent"]
            if p is None:
                total += dur(s)
        return total

    def incl(name):
        return outermost({name})

    def self_time(ss):
        return sum(dur(s) - child_time[s["id"]] for s in ss)

    def tags(s):
        return s["tags"] or {}

    def tag_sum(name, key):
        return sum(tags(s).get(key, 0) for s in named(name))

    def tagged(name, n):
        return [s for s in named(name) if tags(s).get("n") == n]

    m = {}
    for kind in experiments:
        m["cli.%s_s" % kind] = incl("cli." + kind)
    m["analytic.lambdify_calls"] = len(named("analytic.lambdify"))
    m["analytic.lambdify_s"] = incl("analytic.lambdify")
    m["analytic.eval_calls"] = len(named("analytic.eval"))
    m["analytic.eval_s"] = incl("analytic.eval")
    m["analytic.symbolic_s"] = outermost({"analytic.manufactured",
                                          "analytic.operator_apply",
                                          "reduction.transform"})
    m["fields.coeff_eval_calls"] = len(named("fields.coeff_eval"))
    m["fields.coeff_eval_s"] = incl("fields.coeff_eval")
    m["solver.assemble_calls"] = len(named("solver.assemble"))
    m["solver.assemble_s"] = incl("solver.assemble")
    m["solver.certify_calls"] = len(named("solver.certify"))
    m["solver.certify_s"] = incl("solver.certify")
    for n in LADDER:
        m["solver.linear_self_s.n%d" % n] = self_time(
            tagged("solver.solve", n))
        m["solver.nnz.n%d" % n] = max(
            (tags(s).get("nnz", 0) for s in tagged("solver.assemble", n)),
            default=0)
    solves = [dur(s) * 1e3 for s in named("solver.solve")]
    m["solver.solve_calls"] = len(solves)
    m["solver.solve_p50_ms"] = _percentile(solves, 50)
    m["solver.solve_p90_ms"] = _percentile(solves, 90)
    m["solver.apply_operator_calls"] = len(named("solver.apply_operator"))
    m["solver.apply_operator_s"] = incl("solver.apply_operator")
    m["grid.fd_calls"] = len(named("grid.fd"))
    m["grid.fd_s"] = incl("grid.fd")
    m["metrics.seminorm_calls"] = len(named("metrics.seminorm"))
    m["metrics.seminorm_pairs"] = tag_sum("metrics.seminorm", "pairs")
    m["metrics.seminorm_s"] = incl("metrics.seminorm")
    m["reduction.plan_s"] = incl("reduction.plan")
    m["reduction.transform_s"] = incl("reduction.transform")
    m["reduction.recover_s"] = incl("reduction.recover")
    m["verification.suite_self_s"] = self_time(named("verification.suite"))
    m["gridio.save_s"] = incl("gridio.save")
    m["gridio.bytes_written"] = tag_sum("gridio.save", "bytes")
    return m


def _percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def median_metrics(per_iteration):
    """Median of each metric over iterations (dicts with the same keys)."""
    keys = per_iteration[0].keys()
    return {k: statistics.median(it[k] for it in per_iteration)
            for k in keys}
