"""Bench-side spans around the public functions of each clutterkit module.

`Tracer.install` replaces every binding of a traced function, in every loaded
clutterkit module (names copied by `from .x import y` included), and the
traced `Clutter` methods on the class itself.  Nothing under the package is
edited.  Spans live in memory as `[layer, parent index, start, end, value]`
and are summarized, and written out, once after the traced loop.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (defining module, attribute, layer, value recorded from (result, args))
FUNCTIONS = [
    ("blocker", "blocker", "blocker.blocker", lambda out, a: len(out)),
    ("blocker", "maximal_independent_sets", "blocker.indep", None),
    ("blocker", "is_transversal", "blocker.is_transversal", None),
    ("matching", "find_kk2_minor", "matching.find_kk2_minor", lambda out, a: out is not None),
    ("matching", "enumerate_semi_matchings", "matching.enumerate_semi_matchings",
     lambda out, a: len(out)),
    ("matching", "extract_minor_matching", "matching.extract_minor_matching", None),
    ("bounds", "verify_bound", "bounds.verify_bound", None),
    ("bounds", "class_membership", "bounds.class_membership", None),
    ("reductions", "solve_sat", "reductions.solve_sat", None),
    ("reductions", "solve_setcover", "reductions.solve_setcover", None),
    ("formats", "parse_clutter", "formats.parse", lambda out, a: len(a[0])),
    ("formats", "parse_dimacs", "formats.parse", lambda out, a: len(a[0])),
    ("formats", "parse_setcover", "formats.parse", lambda out, a: len(a[0])),
    ("formats", "parse_semi_matching", "formats.parse", lambda out, a: len(a[0])),
    ("formats", "serialize_clutter", "formats.serialize", None),
    ("formats", "format_semi_matching", "formats.serialize", None),
    ("cli", "main", "cli.main", None),
    ("laws", "run_law_suite", "laws.run_law_suite", None),
]

CLUTTER_METHODS = [
    ("restrict", "core.restrict"),
    ("join", "core.lattice"),
    ("meet", "core.lattice"),
    ("delete", "core.lattice"),
    ("contract", "core.lattice"),
    ("__contains__", "core.query"),
    ("rank", "core.query"),
]

SOLVERS = ("reductions.solve_sat", "reductions.solve_setcover")

# Every per-layer metric, in report order, with its unit.
PER_LAYER = [
    ("blocker.blocker.calls", "count"),
    ("blocker.blocker.self_s", "s"),
    ("blocker.blocker.out_sets", "count"),
    ("blocker.indep.self_s", "s"),
    ("blocker.is_transversal.self_s", "s"),
    ("core.construct.calls", "count"),
    ("core.construct.self_s", "s"),
    ("core.construct.kept_ratio", "ratio"),
    ("core.restrict.calls", "count"),
    ("core.restrict.self_s", "s"),
    ("core.lattice.self_s", "s"),
    ("core.query.calls", "count"),
    ("core.query.self_s", "s"),
    ("matching.find_kk2_minor.calls", "count"),
    ("matching.find_kk2_minor.self_s", "s"),
    ("matching.find_kk2_minor.restricts_per_call", "ratio"),
    ("matching.find_kk2_minor.found_ratio", "ratio"),
    ("matching.enumerate_semi_matchings.self_s", "s"),
    ("matching.enumerate_semi_matchings.emitted", "count"),
    ("matching.extract_minor_matching.self_s", "s"),
    ("bounds.verify_bound.self_s", "s"),
    ("bounds.class_membership.self_s", "s"),
    ("reductions.solve_sat.self_s", "s"),
    ("reductions.solve_setcover.self_s", "s"),
    ("reductions.blocker_share", "ratio"),
    ("formats.parse.calls", "count"),
    ("formats.parse.self_s", "s"),
    ("formats.parse.bytes", "bytes"),
    ("formats.serialize.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("laws.run_law_suite.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, layer, fn, value=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if value is not None:
                    rec[4] = value(out, args)
                return out
            finally:
                stack.pop()
                rec[3] = perf_counter()

        return traced

    def _wrap_init(self, init):
        """`Clutter.__init__`, recording (sets in, edges kept)."""
        spans, stack = self.spans, self._stack

        @functools.wraps(init)
        def traced(self_, edges=()):
            rec = ["core.construct", stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                edges = list(edges)
                init(self_, edges)
                rec[4] = (len(edges), len(self_.edges))
            finally:
                stack.pop()
                rec[3] = perf_counter()

        return traced

    def op(self, kind, call):
        """Run one benchmark op under a root span; its index names the request."""
        return self._wrap("op:" + kind, call)()

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        pkg = [m for name, m in sys.modules.items()
               if name == "clutterkit" or name.startswith("clutterkit.")]
        for modname, attr, layer, value in FUNCTIONS:
            orig = getattr(sys.modules["clutterkit." + modname], attr)
            traced = self._wrap(layer, orig, value)
            for mod in pkg:
                if mod.__dict__.get(attr) is orig:
                    self._set(mod, attr, traced)
        cls = sys.modules["clutterkit.core"].Clutter
        self._set(cls, "__init__", self._wrap_init(cls.__init__))
        for attr, layer in CLUTTER_METHODS:
            self._set(cls, attr, self._wrap(layer, cls.__dict__[attr]))
        self._set(cls, "vertices", property(self._wrap("core.query", cls.vertices.fget)))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def summarize(self, rounds, overhead_ratio):
        """Per-layer metrics per round of the op list."""
        spans = self.spans
        child = [0.0] * len(spans)
        # nearest find_kk2_minor or solver ancestor of each span, or -1
        scope = [-1] * len(spans)
        for i, (layer, parent, t0, t1, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                p_layer = spans[parent][0]
                scope[i] = parent if (p_layer == "matching.find_kk2_minor"
                                      or p_layer in SOLVERS) else scope[parent]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        value = defaultdict(int)
        kept = [0, 0]
        restricts_in_find = 0
        solver_s = blocker_in_solver_s = 0.0
        for i, (layer, parent, t0, t1, v) in enumerate(spans):
            calls[layer] += 1
            self_s[layer] += (t1 - t0) - child[i]
            if layer == "core.construct" and v is not None:
                kept[0] += v[0]
                kept[1] += v[1]
            elif v is not None:
                value[layer] += v
            if layer in SOLVERS:
                solver_s += t1 - t0
            s = scope[i]
            if s >= 0:
                if layer == "core.restrict" and spans[s][0] == "matching.find_kk2_minor":
                    restricts_in_find += 1
                if layer == "blocker.blocker" and spans[s][0] in SOLVERS:
                    blocker_in_solver_s += t1 - t0
        find_calls = calls["matching.find_kk2_minor"]
        out = {}
        for name, _ in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = calls[layer] / rounds
            elif field == "self_s":
                out[name] = self_s[layer] / rounds
            elif field in ("out_sets", "emitted", "bytes"):
                out[name] = value[layer] / rounds
        out["core.construct.kept_ratio"] = kept[1] / kept[0] if kept[0] else 0.0
        out["matching.find_kk2_minor.restricts_per_call"] = (
            restricts_in_find / find_calls if find_calls else 0.0)
        out["matching.find_kk2_minor.found_ratio"] = (
            value["matching.find_kk2_minor"] / find_calls if find_calls else 0.0)
        out["reductions.blocker_share"] = blocker_in_solver_s / solver_s if solver_s else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write(self, path, meta):
        """Write every span once, times in microseconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][2] if self.spans else 0.0
        rows = [[index[l], p, round((t0 - base) * 1e6, 1), round((t1 - base) * 1e6, 1), v]
                for l, p, t0, t1, v in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "layers": names,
                       "columns": ["layer", "parent", "start_us", "end_us", "value"],
                       "spans": rows}, fh, separators=(",", ":"))
