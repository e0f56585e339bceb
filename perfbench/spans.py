"""Spans recorded from outside the library, and the per-layer metrics.

The tracer replaces a layer function at the module attribute its callers
look up (``liqshock.schemes.solve`` is the name ``solve_forward`` calls,
``liqshock.analysis.to_prices`` the one the positivity audit calls) with a
wrapper that records one span per call: name, start, end, parent span,
operation id, whether the call returned, and up to two measured values
(rows solved, steps planned, trajectory bytes).  Spans stay in typed
arrays in memory and are written out once, when the run ends.

A name that no longer exists in the library is reported as absent and
its metrics read 0; the run does not stop.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array

import numpy as np

# Array traffic of the Thomas loop per interior row, counted from the
# algorithm rather than measured: 7 flops forward (den, cp, dp) and 2
# back (y); 10 float64 words moved (read lower/diag/upper/rhs, write the
# rhs copy, write and reread cp/dp, write y).
THOMAS_FLOPS_PER_ROW = 9
THOMAS_BYTES_PER_ROW = 80

OP_SPAN = "bench.op"


def _rows(args, kwargs, result):
    return args[0].n_interior, 0.0


def _solve_forward(args, kwargs, result):
    tg = args[2] if len(args) > 2 else kwargs["tg"]
    traj = getattr(result, "trajectory", None) or ()
    return tg.steps, sum(s.u.nbytes + s.v.nbytes for s in traj)


# (module, attribute, span name, measure).  A span name shared by several
# attributes sums them: both assemblers are "schemes.assemble", and every
# grid or time-grid builder is part of "mesh.build".
WRAPPED = [
    ("liqshock.schemes", "solve", "tridiag.solve", _rows),
    ("liqshock.schemes", "check_m_matrix", "tridiag.check_m_matrix", None),
    ("liqshock.schemes", "stability_bound", "tridiag.stability_bound", None),
    ("liqshock.schemes", "restriction_ratio", "schemes.restriction_ratio", None),
    ("liqshock.schemes", "assemble_scheme1", "schemes.assemble", None),
    ("liqshock.schemes", "assemble_scheme2", "schemes.assemble", None),
    ("liqshock.schemes", "solve_forward", "schemes.solve_forward", _solve_forward),
    ("liqshock.analysis", "solve_forward", "schemes.solve_forward", _solve_forward),
    ("liqshock.schemes", "derive_constants", "model.derive_constants", None),
    ("liqshock.analysis", "to_prices", "model.to_prices", None),
    ("liqshock.mesh", "uniform_grid", "mesh.build", None),
    ("liqshock.mesh", "tavella_randall_grid", "mesh.build", None),
    ("liqshock.mesh", "time_grid_from_space", "mesh.build", None),
    ("liqshock.analysis", "uniform_grid", "mesh.build", None),
    ("liqshock.analysis", "tavella_randall_grid", "mesh.build", None),
    ("liqshock.analysis", "time_grid_from_space", "mesh.build", None),
    ("liqshock.analysis", "extrapolated_study", "analysis.extrapolated_study", None),
    ("liqshock.analysis", "audit_positivity", "analysis.audit", None),
    ("liqshock.analysis", "audit_comparison", "analysis.audit", None),
    ("liqshock.analysis", "audit_translation", "analysis.audit", None),
    ("liqshock.analysis", "audit_m_matrix", "analysis.audit", None),
    ("liqshock.analysis", "audit_sup_bound", "analysis.audit", None),
]


class Tracer:
    """Span recorder; ``install`` wraps the layer functions, ``remove``
    puts the originals back."""

    def __init__(self):
        self.names = [OP_SPAN]
        self._name_ids = {OP_SPAN: 0}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.ok = array("b")
        self.v1 = array("d")
        self.v2 = array("d")
        self._stack = [-1]
        self._op = -1
        self._saved = []
        self.absent = []

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name_id, fn, measure, args, kwargs):
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.ok.append(0)
        self.v1.append(0.0)
        self.v2.append(0.0)
        self.end.append(0)
        self._stack.append(idx)
        result = None
        self.start.append(time.perf_counter_ns())
        try:
            result = fn(*args, **kwargs)
            self.ok[idx] = 1
            return result
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()
            if measure is not None:
                try:
                    self.v1[idx], self.v2[idx] = measure(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # A changed signature must not fail the operation.
                    self.v1[idx] = self.v2[idx] = math.nan

    def run_op(self, op_id, fn, *args):
        """Run one benchmark operation as the root span ``bench.op``."""
        self._op = op_id
        return self.span(0, fn, None, args, {})

    def install(self):
        wrappers = {}
        for module_name, attr, name, measure in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            key = (id(original), name)
            if key not in wrappers:
                wrappers[key] = self._wrapper(self._intern(name), original,
                                              measure)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[key])

    def _wrapper(self, name_id, fn, measure):
        def traced(*args, **kwargs):
            return self.span(name_id, fn, measure, args, kwargs)
        return traced

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def arrays(self):
        """Spans as numpy arrays, with self time = duration minus the time
        covered by direct children (one thread, so children never overlap)."""
        a = {k: np.frombuffer(getattr(self, k), dtype=getattr(self, k).typecode)
             for k in ("name_id", "parent", "op", "start", "end", "ok",
                       "v1", "v2")}
        dur = a["end"] - a["start"]
        child = np.zeros(dur.size, dtype=np.int64)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        a["self_ns"] = dur - child
        a["dur_ns"] = dur
        return a

    def write(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)


def _enclosing(name_ids, parent, target):
    """Index of the nearest enclosing span named ``target`` (or -1)."""
    ids = name_ids.tolist()
    out = [-1] * len(ids)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            out[i] = p if ids[p] == target else out[p]
    return np.array(out, dtype=np.int64)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per benchmark operation unless the name says
    otherwise.  Per-step figures count only the solve_forward calls that
    returned, so a run that raised part-way does not skew them."""
    a = tracer.arrays()
    names = tracer.names
    nid = a["name_id"]
    self_s = a["self_ns"] * 1e-9
    ops = max(1, int(np.count_nonzero(nid == 0)))
    op_wall = float(a["dur_ns"][nid == 0].sum()) * 1e-9

    def mask(name):
        if name not in names:
            return np.zeros(nid.size, bool)
        return nid == names.index(name)

    sf = mask("schemes.solve_forward")
    sf_done = sf & (a["ok"] == 1)
    steps_done = float(np.nansum(a["v1"][sf_done]))
    in_done = np.zeros(nid.size, bool)
    if sf.any():
        encl = _enclosing(nid, a["parent"], names.index("schemes.solve_forward"))
        inside = encl >= 0
        in_done[inside] = sf_done[encl[inside]]

    def per_step(values):
        return values / steps_done * 1e6 if steps_done else 0.0

    solve = mask("tridiag.solve")
    rows = float(np.nansum(a["v1"][solve]))
    solve_s = float(self_s[solve].sum())
    assemble = mask("schemes.assemble")
    rr = mask("schemes.restriction_ratio")
    m = {
        "tridiag.solve.calls": (solve.sum() / ops, "count/op"),
        "tridiag.solve.rows": (rows / ops, "count/op"),
        "tridiag.solve.self_s": (solve_s / ops, "s/op"),
        "tridiag.solve.ns_per_row": (solve_s / rows * 1e9 if rows else 0.0, "ns"),
        "tridiag.solve.share": (solve_s / op_wall if op_wall else 0.0, "ratio"),
        "tridiag.solve.flops_per_row_computed":
            (THOMAS_FLOPS_PER_ROW if rows else 0, "flop"),
        "tridiag.solve.bytes_per_row_computed":
            (THOMAS_BYTES_PER_ROW if rows else 0, "B"),
    }
    for name in ("tridiag.check_m_matrix", "tridiag.stability_bound",
                 "model.to_prices"):
        sel = mask(name)
        m[f"{name}.calls"] = (sel.sum() / ops, "count/op")
        m[f"{name}.self_s"] = (float(self_s[sel].sum()) / ops, "s/op")
    m["schemes.restriction_ratio.calls_per_step"] = (
        np.count_nonzero(rr & in_done) / steps_done if steps_done else 0.0,
        "count/step")
    m["schemes.assemble.self_s"] = (float(self_s[assemble].sum()) / ops, "s/op")
    m["schemes.assemble.us_per_step"] = (
        per_step(float(self_s[assemble & in_done].sum())), "us/step")
    m["schemes.solve_forward.calls"] = (sf.sum() / ops, "count/op")
    m["schemes.solve_forward.steps"] = (
        float(np.nansum(a["v1"][sf])) / ops, "count/op")
    m["schemes.solve_forward.self_us_per_step"] = (
        per_step(float(self_s[sf_done].sum())), "us/step")
    m["schemes.completed_share"] = (
        sf_done.sum() / sf.sum() if sf.any() else 0.0, "ratio")
    for name in ("model.derive_constants", "mesh.build", "analysis.audit",
                 "analysis.extrapolated_study"):
        m[f"{name}.self_s"] = (float(self_s[mask(name)].sum()) / ops, "s/op")
    m["analysis.trajectory_bytes"] = (
        float(np.nansum(a["v2"][sf])) / ops, "B/op")
    return {k: (float(v), u) for k, (v, u) in m.items()}
