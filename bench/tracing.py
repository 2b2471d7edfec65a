"""Spans around robinshape's public functions, installed from outside.

A span wrapper replaces every binding of a target function in the loaded
robinshape modules (module attributes and module-level dicts such as
``suites.SUITES``), so calls made through ``from .x import f`` names are
caught too.  Spans are kept in memory; a span's self time is its duration
minus the durations of its direct child spans.  Targets missing from the
package are reported as absent instead of failing the run.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (module, function) pairs timed as spans
SPAN_TARGETS = [
    ("cli", "main"),
    ("suites", "poincare_suite"),
    ("suites", "scaling_suite"),
    ("suites", "ball_minimality_suite"),
    ("radial", "shoot_eigenvalues"),
    ("radial", "robin_eigenvalue_ball"),
    ("sbvgrid", "poincare_check"),
    ("sbvgrid", "boundary_faces"),
    ("sbvgrid", "shape_energy"),
    ("sbvgrid", "perimeter"),
    ("sbvgrid", "write_field_text"),
    ("sbvgrid", "read_field_text"),
    ("pdesolve", "solve_inner"),
    ("pdesolve", "grid_robin_eigenvalue"),
    ("shapeopt", "optimize_shape"),
]
# called too often for a span to be cheap: counted only
COUNT_TARGETS = [
    ("model", "eval_g"),
    ("cli", "write_csv"),
]


def _hook_counts(name, args, result, counts):
    if name == "radial.shoot_eigenvalues":
        counts["radial.eigs"] += len(result)
    elif name == "radial.robin_eigenvalue_ball":
        if result.meta.get("method") == "rayleigh-descent":
            counts["radial.eigs"] += 1
            counts["radial.rayleigh_iterations"] += int(result.meta["iterations"])
    elif name == "sbvgrid.boundary_faces":
        counts["sbvgrid.boundary_faces.faces"] += len(result)
    elif name == "sbvgrid.write_field_text":
        counts["sbvgrid.write_field_text.bytes"] += os.path.getsize(args[0])
    elif name == "cli.write_csv":
        counts["cli.csv_bytes"] += os.path.getsize(result)
    elif name == "shapeopt.optimize_shape":
        rows = result[2].rows
        counts["shapeopt.sweeps"] += len(rows) - 1
        counts["shapeopt.accepted_flips"] += sum(int(r[6]) for r in rows)


class Tracer:
    """Installs span and count wrappers, records one round at a time."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.absent = []
        self._stack = []         # [span index, child seconds, module]
        self._patches = []       # (container, key, original)
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.outer = defaultdict(float)   # per module, spans not nested in it
        self.counts = defaultdict(int)

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn):
        module = name.split(".")[0]
        force_info = name == "pdesolve.solve_inner"

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0, module]
            self._stack.append(frame)
            want_info = kwargs.get("return_info", False)
            if force_info:
                kwargs["return_info"] = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, t0, t1, parent[0] if parent else -1)
            dur = t1 - t0
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
            if parent is None or parent[2] != module:
                self.outer[module] += dur
            if force_info:
                result, info = result
                self.counts["pdesolve.solve_inner.iterations"] += int(info["iterations"])
                if not want_info:
                    return result
                return result, info
            _hook_counts(name, args, result, self.counts)
            return result
        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[name] += 1
            _hook_counts(name, args, result, self.counts)
            return result
        return wrapper

    # -- install / remove -------------------------------------------------
    def install(self):
        mods = [m for k, m in sorted(sys.modules.items())
                if (k == "robinshape" or k.startswith("robinshape.")) and m]
        self.absent = []
        for targets, make in ((SPAN_TARGETS, self._span),
                              (COUNT_TARGETS, self._counter)):
            for modname, fname in targets:
                name = f"{modname}.{fname}"
                home = sys.modules.get(f"robinshape.{modname}")
                orig = getattr(home, fname, None) if home else None
                if orig is None:
                    self.absent.append(name)
                    continue
                wrapped = make(name, orig)
                for mod in mods:
                    ns = vars(mod)
                    for key, val in list(ns.items()):
                        if val is orig:
                            self._patch(ns, key, orig, wrapped)
                        elif isinstance(val, dict):
                            for k2, v2 in list(val.items()):
                                if v2 is orig:
                                    self._patch(val, k2, orig, wrapped)

    def _patch(self, container, key, orig, wrapped):
        container[key] = wrapped
        self._patches.append((container, key, orig))

    def uninstall(self):
        for container, key, orig in reversed(self._patches):
            container[key] = orig
        self._patches = []


# per-layer metrics: name -> unit; every one is reported, 0 when never called
LAYER_UNITS = {
    "radial.shoot_eigenvalues.s": "s",
    "radial.eigs": "count",
    "radial.s_per_eig": "s",
    "radial.robin_eigenvalue_ball.calls": "count",
    "radial.robin_eigenvalue_ball.s": "s",
    "radial.rayleigh_iterations": "count",
    "suites.poincare_suite.self_s": "s",
    "suites.scaling_suite.s": "s",
    "suites.ball_minimality_suite.s": "s",
    "sbvgrid.poincare_check.calls": "count",
    "sbvgrid.poincare_check.s": "s",
    "sbvgrid.boundary_faces.calls": "count",
    "sbvgrid.boundary_faces.s": "s",
    "sbvgrid.boundary_faces.faces": "count",
    "sbvgrid.shape_energy.calls": "count",
    "sbvgrid.shape_energy.s": "s",
    "sbvgrid.perimeter.calls": "count",
    "sbvgrid.perimeter.s": "s",
    "model.eval_g.calls": "count",
    "sbvgrid.write_field_text.s": "s",
    "sbvgrid.write_field_text.bytes": "bytes",
    "sbvgrid.read_field_text.s": "s",
    "pdesolve.solve_inner.calls": "count",
    "pdesolve.solve_inner.s": "s",
    "pdesolve.solve_inner.iterations": "count",
    "pdesolve.s_per_iteration": "s",
    "pdesolve.grid_robin_eigenvalue.calls": "count",
    "pdesolve.grid_robin_eigenvalue.s": "s",
    "shapeopt.optimize_shape.s": "s",
    "shapeopt.self_s": "s",
    "shapeopt.sweeps": "count",
    "shapeopt.self_s_per_sweep": "s",
    "shapeopt.accepted_flips": "count",
    "cli.main.self_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics of the round recorded since the last reset (all but
    trace.overhead_s, which needs an untraced round)."""
    out = {}
    for name in ("radial.robin_eigenvalue_ball", "sbvgrid.poincare_check",
                 "sbvgrid.boundary_faces", "sbvgrid.shape_energy",
                 "sbvgrid.perimeter", "pdesolve.solve_inner",
                 "pdesolve.grid_robin_eigenvalue", "model.eval_g"):
        out[f"{name}.calls"] = t.calls[name]
    for name in ("radial.shoot_eigenvalues", "radial.robin_eigenvalue_ball",
                 "suites.scaling_suite", "suites.ball_minimality_suite",
                 "sbvgrid.poincare_check", "sbvgrid.boundary_faces",
                 "sbvgrid.shape_energy", "sbvgrid.perimeter",
                 "sbvgrid.write_field_text", "sbvgrid.read_field_text",
                 "pdesolve.solve_inner", "pdesolve.grid_robin_eigenvalue",
                 "shapeopt.optimize_shape"):
        out[f"{name}.s"] = t.total[name]
    for name in ("radial.eigs", "radial.rayleigh_iterations",
                 "sbvgrid.boundary_faces.faces", "sbvgrid.write_field_text.bytes",
                 "pdesolve.solve_inner.iterations", "shapeopt.sweeps",
                 "shapeopt.accepted_flips", "cli.csv_bytes"):
        out[name] = t.counts[name]
    out["radial.s_per_eig"] = _ratio(t.outer["radial"], t.counts["radial.eigs"])
    out["suites.poincare_suite.self_s"] = t.self_time["suites.poincare_suite"]
    out["pdesolve.s_per_iteration"] = _ratio(
        t.self_time["pdesolve.solve_inner"],
        t.counts["pdesolve.solve_inner.iterations"])
    out["shapeopt.self_s"] = t.self_time["shapeopt.optimize_shape"]
    out["shapeopt.self_s_per_sweep"] = _ratio(out["shapeopt.self_s"],
                                              t.counts["shapeopt.sweeps"])
    out["cli.main.self_s"] = t.self_time["cli.main"]
    return out
