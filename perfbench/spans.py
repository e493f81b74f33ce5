"""Spans around poise's public functions, for the traced run only.

Every public function a layer module defines is replaced, in that module
and in every layer module that imported it by name, with a wrapper that
records a span (name, start, end, parent). The Polyhedron3 query methods
are wrapped on the class, and the SciPy calls the polytope layers make
(linprog, HalfspaceIntersection) are wrapped where they were imported.
A layer's self time is its spans' time minus the time of their children.
"""

import inspect
import itertools
import time

import numpy as np

LAYERS = ("cli", "geom2d", "balance2d", "geom3d", "tripodal", "polytoped",
          "skeleton_balance")

# work counts: metric suffix -> value from (args, result)
COUNTS = {
    "geom2d.validate_polygon": {
        "edge_pairs": lambda a, r: len(a[0]) * (len(a[0]) - 1) // 2},
    "geom3d.closest_points": {
        "point_tris": lambda a, r: len(np.atleast_2d(a[1])) * len(a[0].tris)},
    "geom3d.contains": {
        "point_tris": lambda a, r: len(np.atleast_2d(a[1])) * len(a[0].tris)},
    "balance2d.balance_iterative": {"rounds": lambda a, r: r.rounds},
    "skeleton_balance.halving_point": {"attempts": lambda a, r: r.attempts},
}

EXTERNAL = (("polytoped", "linprog", "linprog"),
            ("skeleton_balance", "linprog", "linprog"),
            ("polytoped", "HalfspaceIntersection", "halfspace_intersection"))


class Tracer:
    """Span stack plus per-name totals; spans are kept while `keep` is set."""

    def __init__(self):
        self.stack = []
        self.totals = {}          # name -> [calls, seconds, {count: value}]
        self.self_s = {}          # layer -> seconds
        self.spans = []
        self.keep = False
        self._ids = itertools.count()

    def wrap(self, name, layer, fn):
        counts = COUNTS.get(name, {})
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0, next(tracer._ids)]    # child time, span id
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                tot = tracer.totals.setdefault(name, [0, 0.0, {}])
                tot[0] += 1
                tot[1] += dur
                tracer.self_s[layer] = tracer.self_s.get(layer, 0.0) + dur - frame[0]
                if tracer.keep:
                    tracer.spans.append((name, t0, t1, frame[1],
                                         None if parent is None else parent[1]))
            for key, f in counts.items():
                tot[2][key] = tot[2].get(key, 0) + f(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules):
        """Wrap public functions in `modules` (layer name -> module)."""
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", layer, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        cls = modules["geom3d"].Polyhedron3
        for meth in ("closest_points", "contains", "signed_distances"):
            setattr(cls, meth, self.wrap(f"geom3d.{meth}", "geom3d",
                                         getattr(cls, meth)))
        for layer, attr, label in EXTERNAL:
            mod = modules[layer]
            setattr(mod, attr, self.wrap(f"{layer}.{label}", "scipy",
                                         getattr(mod, attr)))

    def snapshot(self):
        """Flat metrics: <name>.calls, <name>.ms, counts, <layer>.self_ms."""
        out = {}
        for name, (calls, secs, counts) in self.totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.ms"] = 1e3 * secs
            for key, value in counts.items():
                out[f"{name}.{key}"] = value
        for layer, secs in self.self_s.items():
            out[f"{layer}.self_ms"] = 1e3 * secs
        return out

    def span_records(self):
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start_ms": 1e3 * (a - t0), "end_ms": 1e3 * (b - t0),
                 "id": i, "parent": p} for n, a, b, i, p in self.spans]
