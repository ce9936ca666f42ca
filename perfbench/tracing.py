"""Span tracing for the benchmark's traced run.

Only benchmark code records spans.  The benchmark times its own calls
into each module's public functions (``Tracer.call``), and, while a
traced op or the traced set-up runs, wrappers replace module attributes
at each caller's binding (``relaxation.lp_solve`` is the name
``solve_relaxation`` looks up, ``rounding.is_feasible`` the one
``rounding.solve`` looks up).  ``Tracer.restore`` puts the originals back.

Spans stay in memory with their parent id and the op they belong to, and
are written as JSON lines when the run ends.  Functions called thousands
of times per op (row building) are summed into their parent span instead
of getting a span per call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (module whose attribute is replaced, attribute, span name, summed into
# the parent span instead of one span per call)
BINDINGS = (
    ("instance_io", "validate_instance", "model.validate", False),
    ("instance_io", "is_feasible", "model.is_feasible", False),
    ("model", "is_feasible", "model.is_feasible", False),
    ("model", "min_cut", "graph.min_cut.feas", False),
    ("model", "enumerate_cuts_below", "graph.enumerate.feas", False),
    ("relaxation", "separate", "relaxation.separate", False),
    ("relaxation", "lp_solve", "relaxation.lp_solve", False),
    ("relaxation", "min_cut", "graph.min_cut.sep", False),
    ("relaxation", "enumerate_cuts_below", "graph.enumerate.sep", False),
    ("relaxation", "constraint_row", "relaxation.rows.constraint_row", True),
    ("relaxation", "candidate_j_sets", "relaxation.rows.candidate_j_sets", True),
    ("rounding", "round_once", "rounding.round_once", False),
    ("rounding", "is_feasible", "model.is_feasible", False),
    ("exact", "is_feasible_direct", "model.is_feasible_direct", False),
)


def _enumerate_counts(args, kwargs, result):
    g = args[0]
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "exhaustive")
    masks = (1 << (g.n - 1)) - 1 if mode == "exhaustive" else 0
    return {"masks": masks, "cuts": len(result)}


COUNTERS = {
    "graph.enumerate.sep": _enumerate_counts,
    "graph.enumerate.feas": _enumerate_counts,
    "model.is_feasible": lambda a, k, r: {"feasible": bool(r)},
    "relaxation.solve_relaxation": lambda a, k, r: {
        "iterations": r.iterations,
        "pool_rows": len(r.active_rows),
    },
    "rounding.solve": lambda a, k, r: {
        "attempts": r.attempts_used,
        "forced": r.forced_set_size,
        "selected": len(r.selection),
    },
    "exact.exact_opt": lambda a, k, r: {"nodes": r.nodes_explored},
    "instance_io.gen": lambda a, k, r: {"repair_edges": r.m - a[1]},
}


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a span named ``name``, called from benchmark code."""
        return self._span(name, "bench", fn, args, kwargs)

    def _span(self, name, caller, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "op": self.op,
            "name": name,
            "caller": caller,
            "attrs": {},
            "agg": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        span["t0"] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["t1"] = perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            span["attrs"] = counter(args, kwargs, result)
        return result

    def _aggregate(self, name, fn, args, kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec = self._stack[-1]["agg"].setdefault(name, [0.0, 0])
            rec[0] += perf_counter() - t0
            rec[1] += 1

    def _wrapper(self, name, caller, fn, aggregate):
        if aggregate:
            return lambda *a, **k: self._aggregate(name, fn, a, k)
        return lambda *a, **k: self._span(name, caller, fn, a, k)

    def install(self):
        for holder, attr, name, aggregate in BINDINGS:
            module = self.modules[holder]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, holder, fn, aggregate))

    def restore(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write_jsonl(self, path, t_origin):
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {k: s[k] for k in ("id", "parent", "op", "name", "caller", "attrs", "agg")}
                rec["start_s"] = s["t0"] - t_origin
                rec["dur_s"] = s["t1"] - s["t0"]
                rec["self_s"] = s["self_s"]
                if "error" in s:
                    rec["error"] = s["error"]
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans) -> None:
    """Fill ``self_s``: duration minus the time covered by children."""
    covered = defaultdict(float)
    for s in spans:
        covered[s["id"]] += sum(t for t, _ in s["agg"].values())
        if s["parent"] is not None:
            covered[s["parent"]] += s["t1"] - s["t0"]
    for s in spans:
        s["self_s"] = s["t1"] - s["t0"] - covered[s["id"]]


LAYER_METRICS = (
    ("graph.enumerate.sep.s", "s"),
    ("graph.enumerate.sep.calls", "count"),
    ("graph.enumerate.sep.masks", "count"),
    ("graph.enumerate.sep.cuts", "count"),
    ("graph.enumerate.sep.yield", "ratio"),
    ("graph.enumerate.sep.share", "ratio"),
    ("graph.enumerate.feas.s", "s"),
    ("graph.enumerate.feas.calls", "count"),
    ("graph.enumerate.feas.masks", "count"),
    ("graph.enumerate.feas.cuts", "count"),
    ("graph.enumerate.feas.yield", "ratio"),
    ("graph.enumerate.feas.share", "ratio"),
    ("graph.min_cut.sep.s", "s"),
    ("graph.min_cut.sep.calls", "count"),
    ("graph.min_cut.feas.s", "s"),
    ("graph.min_cut.feas.calls", "count"),
    ("graph.min_cut.share", "ratio"),
    ("relaxation.solve_relaxation.s", "s"),
    ("relaxation.solve_relaxation.self_s", "s"),
    ("relaxation.iterations", "count"),
    ("relaxation.pool_rows", "count"),
    ("relaxation.lp_solve.s", "s"),
    ("relaxation.lp_solve.share", "ratio"),
    ("relaxation.rows.s", "s"),
    ("relaxation.rows.built", "count"),
    ("relaxation.rows.useful_frac", "ratio"),
    ("relaxation.rows.share", "ratio"),
    ("relaxation.separate.s", "s"),
    ("relaxation.separate.self_s", "s"),
    ("relaxation.lp_above_opt", "count"),
    ("model.is_feasible.s", "s"),
    ("model.is_feasible.calls", "count"),
    ("model.is_feasible.scan_frac", "ratio"),
    ("model.is_feasible.mincut_exits", "count"),
    ("model.is_feasible.share", "ratio"),
    ("model.validate.s", "s"),
    ("instance_io.load.s", "s"),
    ("instance_io.load.self_s", "s"),
    ("instance_io.gen.s", "s"),
    ("instance_io.gen.repair_edges", "count"),
    ("rounding.solve.s", "s"),
    ("rounding.attempts", "count"),
    ("rounding.round_once.s", "s"),
    ("rounding.is_feasible.s", "s"),
    ("rounding.forced_frac", "ratio"),
    ("exact.exact_opt.s", "s"),
    ("exact.exact_opt.self_s", "s"),
    ("exact.exact_opt.nodes", "count"),
    ("exact.exact_opt.share", "ratio"),
    ("instance_io.errors", "count"),
    ("graph.errors", "count"),
    ("model.errors", "count"),
    ("relaxation.errors", "count"),
    ("rounding.errors", "count"),
    ("exact.errors", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_values(spans, untraced_wall, traced_wall, lp_above_opt) -> dict:
    """Per-layer metrics from the spans of a traced run.

    Set-up spans (op is None) feed only the generator metrics; everything
    else comes from op spans.  A share is a layer's self time over the
    traced wall time of all ops.
    """
    self_times(spans)
    dur = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(int))
    rows_s = rows_built = 0
    rounding_feas_s = 0.0
    errors = defaultdict(int)
    top_level = 0.0
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["op"] is None and s["name"] != "instance_io.gen":
            continue
        name = s["name"]
        d = s["t1"] - s["t0"]
        dur[name] += d
        self_s[name] += s["self_s"]
        calls[name] += 1
        for k, v in s["attrs"].items():
            attrs[name][k] += v
        for agg_name, (t, n) in s["agg"].items():
            rows_s += t
            if agg_name.endswith("constraint_row"):
                rows_built += n
        if name == "model.is_feasible" and s["caller"] == "rounding":
            rounding_feas_s += d
        parent = by_id.get(s["parent"])
        if s["parent"] is None and s["op"] is not None:
            top_level += d
        module = name.split(".")[0]
        if "error" in s and (parent is None or parent["name"].split(".")[0] != module):
            errors[module] += 1

    def share(x):
        return _ratio(x, traced_wall)

    sep, feas = attrs["graph.enumerate.sep"], attrs["graph.enumerate.feas"]
    relax = attrs["relaxation.solve_relaxation"]
    rnd = attrs["rounding.solve"]
    mincut_s = dur["graph.min_cut.sep"] + dur["graph.min_cut.feas"]
    v = {
        "graph.enumerate.sep.s": dur["graph.enumerate.sep"],
        "graph.enumerate.sep.calls": calls["graph.enumerate.sep"],
        "graph.enumerate.sep.masks": sep["masks"],
        "graph.enumerate.sep.cuts": sep["cuts"],
        "graph.enumerate.sep.yield": _ratio(sep["cuts"], sep["masks"]),
        "graph.enumerate.sep.share": share(self_s["graph.enumerate.sep"]),
        "graph.enumerate.feas.s": dur["graph.enumerate.feas"],
        "graph.enumerate.feas.calls": calls["graph.enumerate.feas"],
        "graph.enumerate.feas.masks": feas["masks"],
        "graph.enumerate.feas.cuts": feas["cuts"],
        "graph.enumerate.feas.yield": _ratio(feas["cuts"], feas["masks"]),
        "graph.enumerate.feas.share": share(self_s["graph.enumerate.feas"]),
        "graph.min_cut.sep.s": dur["graph.min_cut.sep"],
        "graph.min_cut.sep.calls": calls["graph.min_cut.sep"],
        "graph.min_cut.feas.s": dur["graph.min_cut.feas"],
        "graph.min_cut.feas.calls": calls["graph.min_cut.feas"],
        "graph.min_cut.share": share(mincut_s),
        "relaxation.solve_relaxation.s": dur["relaxation.solve_relaxation"],
        "relaxation.solve_relaxation.self_s": self_s["relaxation.solve_relaxation"],
        "relaxation.iterations": relax["iterations"],
        "relaxation.pool_rows": relax["pool_rows"],
        "relaxation.lp_solve.s": dur["relaxation.lp_solve"],
        "relaxation.lp_solve.share": share(self_s["relaxation.lp_solve"]),
        "relaxation.rows.s": rows_s,
        "relaxation.rows.built": rows_built,
        "relaxation.rows.useful_frac": _ratio(relax["pool_rows"], rows_built),
        "relaxation.rows.share": share(rows_s),
        "relaxation.separate.s": dur["relaxation.separate"],
        "relaxation.separate.self_s": self_s["relaxation.separate"],
        "relaxation.lp_above_opt": lp_above_opt,
        "model.is_feasible.s": dur["model.is_feasible"],
        "model.is_feasible.calls": calls["model.is_feasible"],
        "model.is_feasible.scan_frac": _ratio(
            calls["graph.enumerate.feas"], calls["model.is_feasible"]
        ),
        "model.is_feasible.infeasible": calls["model.is_feasible"]
        - attrs["model.is_feasible"]["feasible"],
        "model.is_feasible.mincut_exits": calls["model.is_feasible"]
        - calls["graph.enumerate.feas"],
        "model.is_feasible.share": share(self_s["model.is_feasible"]),
        "model.validate.s": dur["model.validate"],
        "instance_io.load.s": dur["instance_io.load"],
        "instance_io.load.self_s": self_s["instance_io.load"],
        "instance_io.gen.s": dur["instance_io.gen"],
        "instance_io.gen.repair_edges": attrs["instance_io.gen"]["repair_edges"],
        "rounding.solve.s": dur["rounding.solve"],
        "rounding.attempts": rnd["attempts"],
        "rounding.round_once.s": dur["rounding.round_once"],
        "rounding.is_feasible.s": rounding_feas_s,
        "rounding.forced_frac": _ratio(rnd["forced"], rnd["selected"]),
        "exact.exact_opt.s": dur["exact.exact_opt"],
        "exact.exact_opt.self_s": self_s["exact.exact_opt"],
        "exact.exact_opt.nodes": attrs["exact.exact_opt"]["nodes"],
        "exact.exact_opt.share": share(self_s["exact.exact_opt"]),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": share(top_level),
    }
    for module in ("instance_io", "graph", "model", "relaxation", "rounding", "exact"):
        v[f"{module}.errors"] = errors[module]
    return v


def top_self(spans, traced_wall, k=6):
    """The k largest self times among op spans, as (name, share)."""
    totals = defaultdict(float)
    for s in spans:
        if s["op"] is None:
            continue
        totals[s["name"]] += s["self_s"]
        for agg_name, (t, _) in s["agg"].items():
            totals[agg_name.rsplit(".", 1)[0]] += t
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:k]
    return [(name, _ratio(t, traced_wall)) for name, t in ranked]
