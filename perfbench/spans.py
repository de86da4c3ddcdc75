"""Span tracer for the traced benchmark run.

``Tracer.install()`` wraps the public entry points of each fraclab module for
the duration of one traced pass and ``uninstall()`` restores them; nothing in
the package itself changes.  Every wrapped call records a span (name, start,
end, parent, op id) in memory.  A span's self time is its duration minus the
durations of its direct children; the self times of all spans plus the root
span's self time add up to the traced wall time.

Spans nest on a single stack.  That is valid because every run uses
``--threads 1``: the CLI's single worker thread runs while the main thread
waits on it, so calls never interleave.
"""

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("wos", "geometry", "barriers", "nonlocal_op", "fields",
           "extension", "regularity", "cli", "kernels", "bench")

_DOMAIN_NAMES = {"Ball": "ball", "Polygon": "square", "StarShaped": "star"}

# Counters the package does not expose yet; listed so they show as
# unmeasured rather than missing.
UNMEASURED = {
    "wos.maxed": "walkers stopped by max_steps are not returned by "
                 "SolutionSample (only a ReliabilityError above 1%)",
    "wos.steps_max": "SolutionSample keeps the mean step count only, no "
                     "histogram or maximum",
    "wos.stage_s": "draw, payload and project time inside solve are not "
                   "separated; only the wrapped geometry, exit and datum calls are",
    "nonlocal_op.refinements": "OperatorValue returns n_evals but not the "
                               "radial or angular panel refinements",
    "wos.ball_poisson.n_evals": "ball_poisson returns (value, err) only",
    "wos.halfplane_poisson.n_evals": "halfplane_poisson returns (value, err) only",
    "extension.disk.nodes": "DiskExtension does not report its quadrature "
                            "nodes per evaluation",
    "geometry.star.newton_iters": "StarShaped._dist_batch does not report "
                                  "its Newton sweeps",
}


def _n_points(x):
    shape = x.shape if isinstance(x, np.ndarray) else np.shape(x)
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, parent, op, t0, t1)
        self.stats = defaultdict(lambda: [0, 0, 0.0, 0.0])  # calls, points, s, self_s
        self.counters = defaultdict(float)
        self.module_self = defaultdict(float)
        self.op = None
        self._stack = []         # [id, name, t0, child_s]
        self._patches = []

    # -- spans -----------------------------------------------------------

    def active(self, name):
        return bool(self._stack) and self._stack[-1][1] == name

    def enter(self, name):
        sid = len(self.spans) + len(self._stack)
        self._stack.append([sid, name, time.perf_counter(), 0.0])

    def exit(self, points=0):
        t1 = time.perf_counter()
        sid, name, t0, child = self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += dur
        st = self.stats[name]
        st[0] += 1
        st[1] += points
        st[2] += dur
        st[3] += dur - child
        self.module_self[name.split(".")[0]] += dur - child
        self.counters["trace.spans"] += 1
        self.spans.append((sid, name, parent, self.op, t0, t1))
        return dur

    def span(self, name, points_of=None, on_result=None, name_of=None):
        """Decorator factory: wrap ``fn`` so each call records a span.  A
        call made directly inside a span of the same name (a field delegating
        to its base field, say) is folded into the outer span."""

        def deco(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                nm = name_of(args) if name_of else name
                if self.active(nm):
                    return fn(*args, **kwargs)
                self.enter(nm)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dur = self.exit(points_of(args) if points_of else 0)
                if on_result is not None:
                    on_result(args, out, dur)
                return out
            return wrapped

        return deco

    # -- installation ----------------------------------------------------

    def _patch_attr(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, fn, new):
        """Rebind every fraclab module-level name bound to ``fn``: modules
        import functions by name, so each binding is patched."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "fraclab"
                                   or modname.startswith("fraclab.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patch_attr(mod, attr, new)

    def install(self):
        from fraclab import (barriers, cli, extension, fields, geometry,
                             kernels, nonlocal_op, regularity, wos)

        def add(key, amount):
            self.counters[key] += amount

        def dom_name(prefix, method):
            return lambda a: f"{prefix}.{_DOMAIN_NAMES.get(type(a[0]).__name__, 'other')}.{method}"

        # wos: walker, exit sampler, Poisson quadratures
        def solve_done(args, out, dur):
            dom = _DOMAIN_NAMES.get(type(args[0]).__name__, "other")
            add("wos.paths", out.paths_used)
            add("wos.steps", out.mean_steps * out.paths_used)
            add("wos.snapped", out.snapped_fraction * out.paths_used)
            add(f"wos.{dom}.paths", out.paths_used)
            add(f"wos.{dom}.s", dur)

        self._patch_function(wos.solve, self.span(
            "wos.solve", on_result=solve_done)(wos.solve))
        self._patch_attr(wos.StableExitSampler, "radius", self.span(
            "wos.exit", points_of=lambda a: int(np.size(a[1])))(
            wos.StableExitSampler.radius))
        for fn in (wos.ball_poisson, wos.halfplane_poisson):
            self._patch_function(fn, self.span(f"wos.{fn.__name__}")(fn))

        # geometry: the three queries the walker makes, per domain type
        for cls in (geometry.Ball, geometry.Polygon, geometry.StarShaped):
            for method in ("dist", "contains", "project"):
                self._patch_attr(cls, method, self.span(
                    None, name_of=dom_name("geometry", method),
                    points_of=lambda a: _n_points(a[1]))(cls.__dict__[method]))

        # barriers: the exterior datum and the verification reports
        self._patch_attr(barriers.ExteriorData, "__call__", self.span(
            "barriers.datum", points_of=lambda a: _n_points(a[1]))(
            barriers.ExteriorData.__call__))
        for fn in (barriers.verify_halfspace_supersolution,
                   barriers.verify_psi_barrier, barriers.verify_cone_barrier):
            self._patch_function(fn, self.span("barriers.verify")(fn))

        # nonlocal_op: the operator quadrature (its _quad helpers included)
        def apply_done(args, out, dur):
            add("nonlocal_op.n_evals", out.n_evals)
            add("nonlocal_op.tol_ok", 1.0 if out.tol_ok else 0.0)

        self._patch_function(nonlocal_op.apply_L, self.span(
            "nonlocal_op.apply_L", on_result=apply_done)(nonlocal_op.apply_L))

        # fields: point evaluation and kink metadata of every field class
        for cls in vars(fields).values():
            if not (isinstance(cls, type) and issubclass(cls, fields.Field)):
                continue
            if "__call__" in cls.__dict__:
                self._patch_attr(cls, "__call__", self.span(
                    "fields.eval", points_of=lambda a: _n_points(a[1]))(
                    cls.__dict__["__call__"]))
            for method in ("radial_breakpoints", "angular_breakpoints"):
                if method in cls.__dict__:
                    self._patch_attr(cls, method, self.span(
                        "fields.breakpoints")(cls.__dict__[method]))

        # extension: disk Poisson integral and the finite-difference Hessian
        self._patch_attr(extension.DiskExtension, "__call__", self.span(
            "extension.disk", points_of=lambda a: _n_points(a[1]))(
            extension.DiskExtension.__call__))
        self._patch_function(extension.hessian_fd, self.span(
            "extension.hessian_fd")(extension.hessian_fd))

        # regularity, cli, kernels
        for fn in (regularity.boundary_profile, regularity.fit_holder):
            self._patch_function(fn, self.span(f"regularity.{fn.__name__}")(fn))
        self._patch_function(cli.run, self.span("cli.run")(cli.run))
        # kernels built after installation pick up the traced density
        self._patch_function(kernels._ones_density, self.span(
            "kernels.angular_density")(kernels._ones_density))

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path):
        """Write the spans kept so far as gzipped JSON lines."""
        with gzip.open(path, "wt") as f:
            for sid, name, parent, op, t0, t1 in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                    "op": op, "start": t0, "end": t1}) + "\n")


def _stat(tr, name):
    calls, points, s, self_s = tr.stats.get(name, (0, 0, 0.0, 0.0))
    return calls, points, s, self_s


def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(tr, n_passes):
    """Per-layer metrics per traced pass, keyed as in BENCHMARK.json."""
    m = {}
    per = 1.0 / max(n_passes, 1)

    calls, _, s, self_s = _stat(tr, "wos.solve")
    m["wos.solve.calls"] = calls * per
    m["wos.solve.s"] = s * per
    m["wos.solve.self_s"] = self_s * per
    paths = tr.counters["wos.paths"]
    m["wos.paths"] = paths * per
    m["wos.steps"] = tr.counters["wos.steps"] * per
    m["wos.snapped_frac"] = _rate(tr.counters["wos.snapped"], paths)
    for dom in ("ball", "square", "star"):
        m[f"wos.{dom}.paths_per_s"] = _rate(tr.counters[f"wos.{dom}.paths"],
                                            tr.counters[f"wos.{dom}.s"])
    _, draws, s, _ = _stat(tr, "wos.exit")
    m["wos.exit.draws"] = draws * per
    m["wos.exit.s"] = s * per
    m["wos.exit.draws_per_s"] = _rate(draws, s)

    for dom in ("ball", "square", "star"):
        for method in ("dist", "contains", "project"):
            calls, points, s, _ = _stat(tr, f"geometry.{dom}.{method}")
            key = f"geometry.{dom}.{method}"
            m[f"{key}.calls"] = calls * per
            m[f"{key}.points"] = points * per
            m[f"{key}.s"] = s * per
        calls, points, _, _ = _stat(tr, f"geometry.{dom}.project")
        m[f"geometry.{dom}.project.points_per_call"] = _rate(points, calls)

    calls, points, s, _ = _stat(tr, "barriers.datum")
    m["barriers.datum.calls"] = calls * per
    m["barriers.datum.points"] = points * per
    m["barriers.datum.s"] = s * per
    calls, _, s, _ = _stat(tr, "barriers.verify")
    m["barriers.verify.calls"] = calls * per
    m["barriers.verify.s"] = s * per

    calls, _, s, self_s = _stat(tr, "nonlocal_op.apply_L")
    n_evals = tr.counters["nonlocal_op.n_evals"]
    m["nonlocal_op.apply_L.calls"] = calls * per
    m["nonlocal_op.apply_L.s"] = s * per
    m["nonlocal_op.apply_L.self_s"] = self_s * per
    m["nonlocal_op.apply_L.n_evals"] = n_evals * per
    m["nonlocal_op.apply_L.evals_per_call"] = _rate(n_evals, calls)
    m["nonlocal_op.tol_ok_frac"] = _rate(tr.counters["nonlocal_op.tol_ok"], calls)
    m["nonlocal_op.tol_warnings"] = tr.counters["nonlocal_op.tol_warnings"] * per

    calls, points, s, _ = _stat(tr, "fields.eval")
    m["fields.eval.calls"] = calls * per
    m["fields.eval.points"] = points * per
    m["fields.eval.s"] = s * per
    calls, _, s, _ = _stat(tr, "fields.breakpoints")
    m["fields.breakpoints.calls"] = calls * per
    m["fields.breakpoints.s"] = s * per

    calls, points, s, _ = _stat(tr, "extension.disk")
    m["extension.disk.calls"] = calls * per
    m["extension.disk.s"] = s * per
    m["extension.disk.evals_per_s"] = _rate(points, s)
    m["extension.hessian_fd.s"] = _stat(tr, "extension.hessian_fd")[2] * per

    for fn in ("ball_poisson", "halfplane_poisson"):
        calls, _, s, _ = _stat(tr, f"wos.{fn}")
        m[f"wos.{fn}.calls"] = calls * per
        m[f"wos.{fn}.ms_per_point"] = 1e3 * _rate(s, calls)

    for fn in ("boundary_profile", "fit_holder"):
        m[f"regularity.{fn}.s"] = _stat(tr, f"regularity.{fn}")[2] * per
    calls, _, _, self_s = _stat(tr, "cli.run")
    m["cli.calls"] = calls * per
    m["cli.self_s"] = self_s * per
    m["cli.csv_bytes"] = tr.counters["cli.csv_bytes"] * per
    calls, _, s, _ = _stat(tr, "kernels.angular_density")
    m["kernels.angular_density.calls"] = calls * per
    m["kernels.angular_density.s"] = s * per

    for mod in MODULES:
        m[f"trace.self_s.{mod}"] = tr.module_self[mod] * per
    m["trace.spans"] = tr.counters["trace.spans"] * per
    return m
