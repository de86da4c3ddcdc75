"""Command-line entry point.

One binary with subcommands, run through one path: ``build_parser``
declares each subcommand's flags and defaults, and ``_resolve`` builds the
run's config from them (config file, then present flags, which win, then
the defaults), parsing the string forms of ``data``, ``field``, ``points``
and ``z0`` once.  A parameter that is missing or does not parse raises a
ParameterError naming it.  ``_write_csv`` and ``_write_report`` write every
output: the CSV embeds the resolved config and its hash in comment lines,
and a JSON sidecar ``<out>.meta.json`` carries the config, package and
Python versions, platform, worker threads, seed and wall time, and the
run's report (for ``solve``, each point's walk diagnostics; for
``apply-op`` and ``verify-barrier``, each operator point's quadrature
diagnostics and the ToleranceWarnings raised).  Outputs are
byte-identical for identical (config, seed): floats have a fixed precision
and ``_map`` keeps input order.

Exit codes: 0 success / verification PASS, 2 verification FAIL, 1 error.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy

from . import __version__
from .barriers import (counterexample_min_rs_1, data_from_config,
                       holder_point_singularity, verify_cone_barrier,
                       verify_halfspace_supersolution, verify_psi_barrier)
from .errors import FracLabError, ParameterError, ToleranceWarning
from .fields import ConeBarrier, HalfSpacePower, PsiPower
from .geometry import (Ball, Polygon, StarShaped, domain_from_config,
                       unit_square)
from .kernels import kernel_from_config, make_fractional_laplacian, validate_kernel
from .nonlocal_op import QuadratureSpec, apply_L_many
from .regularity import (boundary_profile, exponent_experiment, fit_holder,
                         BoundaryProfile, wos_solver)
from .wos import WoSConfig, halfplane_poisson, kappa_constant, solve

_FLOAT_FMT = ".12g"


class Config(dict):
    """A subcommand's resolved config.

    A key that is absent reads as its declared fallback, which stays out of
    the recorded config, or raises a ParameterError naming it.  ``threads``
    is the run's worker-thread count, kept out of the config because it
    does not change the output.
    """

    def __init__(self, command, flags, fallbacks, threads):
        super().__init__()
        self.command = command
        self.flags = flags
        self.fallbacks = fallbacks
        self.threads = threads
        self.started = time.time()

    def __missing__(self, key):
        if key in self.fallbacks:
            return self.fallbacks[key]
        raise ParameterError(
            f"{self.command} needs {key} (--{key} or the config file)")


def _build(cfg, key, make):
    """make(cfg[key]), a value it rejects raised as a ParameterError naming
    key."""
    spec = cfg[key]
    try:
        return make(spec)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ParameterError(f"bad {key} {spec!r}: {e}") from None


def _floats(text):
    return [float(v) for v in text.split(",")]


# parsers of the string forms a flag carries
_PARSERS = {
    "data": json.loads,
    "field": json.loads,
    "points": lambda text: [_floats(p) for p in text.split(";")],
    "z0": _floats,
}


def _resolve(args):
    """The run's config: file values overridden by present flags, then the
    declared defaults, with string forms parsed."""
    cfg = Config(args.command, args.flags, args.fallbacks, _threads(args))
    if args.config:
        with open(args.config) as f:
            cfg.update(_build(vars(args), "config",
                              lambda _: dict(json.load(f))))
    for k in args.flags:
        v = getattr(args, k.replace("-", "_"))
        if v is not None:
            cfg[k] = v
    for k, v in args.defaults.items():
        cfg.setdefault(k, v)
    cfg["command"] = args.command
    if "points-file" in args.flags and cfg.get("points-file"):
        cfg["points"] = _build(cfg, "points-file", lambda path: np.loadtxt(
            path, delimiter=",", comments="#", ndmin=2).tolist())
    for k, parse in _PARSERS.items():
        if k in args.flags and isinstance(cfg.get(k), str):
            cfg[k] = _build(cfg, k, parse)
    return cfg


def _domain_from_spec(spec):
    if spec == "ball":
        return Ball([0.0, 0.0], 1.0)
    if spec == "square":
        return unit_square()
    return domain_from_config(json.loads(spec) if isinstance(spec, str)
                              else spec)


def _domain(cfg):
    """The config's domain; ``cfg["domain"]`` keeps its text."""
    return _build(cfg, "domain", _domain_from_spec)


def _threads(args):
    n = getattr(args, "threads", None)
    if n is None:
        env = os.environ.get("FRACLAB_THREADS")
        try:
            n = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ParameterError(
                f"threads must be an integer (FRACLAB_THREADS={env!r})") from None
    if n < 1:
        raise ParameterError(f"threads must be >= 1 (got {n})")
    return n


def _map(cfg, fn, items):
    """[fn(item) for item in items] on the worker threads, in input order."""
    with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
        return list(ex.map(fn, items))


# ---------------------------------------------------------------------------
# writers

def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return format(float(v), _FLOAT_FMT)
    return str(v)


def _config_blob(cfg):
    body = {k: v for k, v in cfg.items() if k != "out"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _config_hash(cfg):
    return hashlib.sha256(_config_blob(cfg).encode()).hexdigest()[:16]


def _write_sidecar(out, cfg, report):
    side = {
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "versions": {"fraclab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": platform.python_version(),
                     "platform": "-".join((platform.system(),
                                           platform.release(),
                                           platform.machine())),
                     "threads": cfg.threads},
        "seed": cfg["seed"] if "seed" in cfg.flags else None,
        "wall_time": time.time() - cfg.started,
    }
    if report is not None:
        side["report"] = report
    with open(out + ".meta.json", "w") as f:
        json.dump(side, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(cfg, header, rows, report=None):
    """Write rows (default ``<command>.csv``) and the sidecar; returns the
    path."""
    out = cfg.get("out", cfg.command.replace("-", "_") + ".csv")
    lines = [f"# fraclab config_hash={_config_hash(cfg)}",
             f"# config={_config_blob(cfg)}", ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    with open(out, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")
    _write_sidecar(out, cfg, report)
    return out


def _write_report(cfg, report, summary=None, name=None):
    """Write the JSON report (default ``<command>.json``) and the sidecar,
    which carries ``summary`` or else the report."""
    out = cfg.get("out", name or cfg.command.replace("-", "_") + ".json")
    with open(out, "w") as f:
        json.dump({"config": cfg, "config_hash": _config_hash(cfg),
                   "report": report}, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_sidecar(out, cfg, report if summary is None else summary)


def _coords(dim):
    return [f"x{i + 1}" for i in range(dim)]


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate_kernel(args):
    cfg = _resolve(args)
    if "kernel" in cfg:
        kernel = kernel_from_config(cfg["kernel"])
    else:
        kernel = make_fractional_laplacian(cfg["s"], cfg["dim"])
        cfg["kernel"] = {"type": "frac_lap", "s": cfg["s"], "dim": cfg["dim"]}
    rep = validate_kernel(kernel, samples=cfg["samples"])
    report = {
        "samples": rep.samples,
        "max_symmetry_violation": rep.max_symmetry_violation,
        "worst_lower_margin": rep.worst_lower_margin,
        "worst_upper_margin": rep.worst_upper_margin,
        "ok": rep.ok,
    }
    _write_report(cfg, report)
    print(("PASS" if rep.ok else "FAIL"), "kernel validation:", report)
    return 0 if rep.ok else 2


_FIELDS = {
    "halfspace_power": lambda p: HalfSpacePower(p.get("nu", (0.0, 1.0)),
                                                p["alpha"]),
    "psi_power_ball": lambda p: PsiPower(Ball(p.get("center", (0.0, 0.0)),
                                              p.get("radius", 1.0)),
                                         p["alpha"]),
    "cone_barrier": lambda p: ConeBarrier(p.get("e", (0.0, 1.0)),
                                          p.get("eta", 1.0), p["beta"]),
}


def _field_from_spec(spec):
    name = spec["name"]
    if name not in _FIELDS:
        raise ParameterError(
            f"unknown field {name!r}; known: {sorted(_FIELDS)}")
    return _FIELDS[name](spec)


_OPERATOR_DIAGNOSTICS = ("n_evals", "refinements", "err_estimate", "tol_ok")


def _counting_tolerance_warnings(fn):
    """fn() and the number of ToleranceWarnings it raised.  Every warning
    caught is issued again afterwards, through the caller's filters."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ToleranceWarning)
        out = fn()
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return out, sum(issubclass(w.category, ToleranceWarning) for w in caught)


def _operator_diagnostics(evaluations, n_warnings):
    """Each operator point's quadrature diagnostics and, over all points,
    the nodes and refinements summed, the largest error estimate, the
    tolerance misses and the ToleranceWarnings raised."""
    evaluations = list(evaluations)
    points = [{"x": [float(v) for v in x],
               **{k: getattr(ov, k) for k in _OPERATOR_DIAGNOSTICS}}
              for x, ov in evaluations]
    ovs = [ov for _, ov in evaluations]
    totals = {"n_evals": sum(ov.n_evals for ov in ovs),
              "refinements": sum(ov.refinements for ov in ovs),
              "err_estimate": max((ov.err_estimate for ov in ovs),
                                  default=0.0),
              "tol_misses": sum(not ov.tol_ok for ov in ovs),
              "tol_warnings": n_warnings}
    return {"points": points, "totals": totals}


def cmd_apply_op(args):
    cfg = _resolve(args)
    u = _build(cfg, "field", _field_from_spec)
    kernel = make_fractional_laplacian(cfg["s"], cfg["dim"])
    pts = cfg["points"]
    q = QuadratureSpec(target_rel_tol=cfg["rel-tol"])
    ovs, n_warnings = _counting_tolerance_warnings(
        lambda: apply_L_many(kernel, u, pts, q=q))
    rows = [(*p, ov.value, ov.err_estimate, ov.near_part, ov.far_part)
            for p, ov in zip(pts, ovs)]
    out = _write_csv(cfg, _coords(len(pts[0])) + [
        "value", "err_estimate", "near_part", "far_part"], rows,
        report={"diagnostics": _operator_diagnostics(zip(pts, ovs),
                                                     n_warnings)})
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def cmd_verify_barrier(args):
    cfg = _resolve(args)
    kind = cfg["kind"]
    kernel = make_fractional_laplacian(cfg["s"], 2)
    q = QuadratureSpec(target_rel_tol=cfg["rel-tol"])

    def verify():
        if kind == "halfspace":
            heights = np.geomspace(0.25, 4.0, 10)
            pts = [np.array([0.3 * h, h]) for h in heights]
            return verify_halfspace_supersolution(kernel, cfg["alpha"], pts,
                                                  q=q)
        if kind == "psi":
            return verify_psi_barrier(kernel, Ball([0.0, 0.0], 1.0),
                                      cfg["alpha"], q=q)
        if kind == "cone":
            return verify_cone_barrier(kernel, (0.0, 1.0), cfg["eta"],
                                       cfg["beta"], q=q)
        raise ParameterError(f"unknown barrier kind {kind!r}")

    rep, n_warnings = _counting_tolerance_warnings(verify)
    _write_report(cfg, rep.to_jsonable(), {
        "pass": rep.passed,
        "diagnostics": _operator_diagnostics(rep.evaluations, n_warnings)},
        name=f"verify_{kind}.json")
    print(("PASS" if rep.passed else "FAIL"),
          f"{kind} barrier: min value {rep.min_value:.6g}, "
          f"min margin {rep.min_margin:.3g}x err")
    return 0 if rep.passed else 2


def _walk_setup(cfg):
    """Domain, datum, kernel and WoS config of a walk-on-spheres command."""
    dom = _domain(cfg)
    g = _build(cfg, "data", data_from_config)
    kernel = make_fractional_laplacian(cfg["s"], dom.dim)
    return dom, g, kernel, WoSConfig(paths=cfg["paths"], seed=cfg["seed"])


_WALK_DIAGNOSTICS = ("paths_used", "n_maxed", "steps_max", "bias_bound")


def _walk_diagnostics(samples):
    """Each point's walk diagnostics, and over all points the paths and
    max_steps hits summed, the most steps and the largest bias bound."""
    points = [{"x": list(o.x), **{k: getattr(o, k) for k in _WALK_DIAGNOSTICS}}
              for o in samples]
    totals = {"paths_used": sum(o.paths_used for o in samples),
              "n_maxed": sum(o.n_maxed for o in samples),
              "steps_max": max(o.steps_max for o in samples),
              "bias_bound": max(o.bias_bound for o in samples)}
    return {"points": points, "totals": totals}


def cmd_solve(args):
    cfg = _resolve(args)
    dom, g, kernel, wcfg = _walk_setup(cfg)

    def work(item):
        i, p = item
        return solve(dom, g, p, kernel, wcfg, point_index=i)

    samples = _map(cfg, work, enumerate(cfg["points"]))
    rows = [(*p, o.estimate, o.stderr, o.mean_steps, o.snapped_fraction)
            for p, o in zip(cfg["points"], samples)]
    out = _write_csv(cfg, _coords(dom.dim) + [
        "estimate", "stderr", "mean_steps", "snapped_fraction"], rows,
        report={"diagnostics": _walk_diagnostics(samples)})
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def cmd_profile(args):
    cfg = _resolve(args)
    dom, g, kernel, wcfg = _walk_setup(cfg)
    if cfg.get("z0") is None and g.singular_points:
        cfg["z0"] = list(g.singular_points[0])
    z0 = np.asarray(cfg["z0"], dtype=float)
    t_grid = np.geomspace(cfg["tmin"], cfg["tmax"], cfg["n"]) * dom.diameter
    prof = boundary_profile(wos_solver(dom, g, kernel, wcfg), dom, g, z0,
                            t_grid)
    rows = list(zip(prof.t, prof.values, prof.stderr))
    out = _write_csv(cfg, ["t", "value", "stderr"], rows,
                     report={"z0": list(prof.z0), "normal": list(prof.normal),
                             "g0": prof.g0})
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _read_numeric_csv(path):
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError:
                continue  # header row
    return np.asarray(rows, dtype=float)


def cmd_fit(args):
    cfg = _resolve(args)
    arr = _read_numeric_csv(cfg["input"])
    prof = BoundaryProfile(z0=(np.nan,), normal=(np.nan,),
                           t=tuple(arr[:, 0]), values=tuple(arr[:, 1]),
                           stderr=tuple(arr[:, 2] if arr.shape[1] > 2
                                        else np.zeros(len(arr))), g0=0.0)
    fit = fit_holder(prof, s=cfg.get("s"))
    report = {
        "alpha_hat": fit.alpha_hat, "constant_hat": fit.constant_hat,
        "log_coeff": fit.log_coeff, "model": fit.model,
        "residual_rms": fit.residual_rms, "window": list(fit.window),
        "half_window_slopes": list(fit.half_window_slopes),
        "n_used": fit.n_used,
    }
    _write_report(cfg, report)
    print(f"alpha_hat={fit.alpha_hat:.4f} model={fit.model}")
    return 0


def cmd_experiment(args):
    cfg = _resolve(args)
    dom = _domain(cfg)
    # the datum's singularity sits on the boundary
    if isinstance(dom, Ball) and dom.dim <= 2:
        anchor = (dom.center + dom.radius * np.eye(dom.dim)[0]).tolist()
    elif isinstance(dom, Polygon):
        anchor = dom.vertices[0].tolist()
    elif isinstance(dom, StarShaped):
        anchor = dom.boundary_point(0.0).tolist()
    else:
        raise ParameterError(
            "experiment needs a 1-D or 2-D ball, a polygon or a star domain, "
            f"not a {dom.dim}-D {type(dom).__name__}")
    g = holder_point_singularity(cfg["alpha"], anchor)
    cfg["data"] = {"name": "holder_point_singularity", "alpha": cfg["alpha"],
                   "z0": anchor}
    rep = exponent_experiment(dom, g, cfg["s"], cfg=WoSConfig(
        paths=cfg["paths"], seed=cfg["seed"]))
    rows = []
    for (z0, fit), prof in zip(rep.fits, rep.profiles):
        for t, v, e in zip(prof.t, prof.values, prof.stderr):
            rows.append((*z0, t, v, e, fit.alpha_hat, fit.model))
    _write_csv(cfg, ["z0_x", "z0_y"][:dom.dim]
               + ["t", "value", "stderr", "alpha_hat", "model"], rows,
               report=rep.to_jsonable())
    print(f"alpha_hat={rep.alpha_hat:.4f} expected={rep.expected_exponent} "
          f"verdict: {rep.verdict}")
    ok = "deviates" not in rep.verdict and "no log" not in rep.verdict
    return 0 if ok else 2


def cmd_counterexample(args):
    cfg = _resolve(args)
    s = cfg["s"]
    g = counterexample_min_rs_1(s)

    def work(t):
        v, _ = halfplane_poisson(g, [0.0, t], s)
        base = t ** s * np.log(1.0 / t)
        return (t, v, t ** s, base, v / base)

    rows = _map(cfg, work, np.geomspace(cfg["tmin"], cfg["tmax"], cfg["n"]))
    out = _write_csv(cfg, ["t", "u", "t_pow_s", "t_pow_s_log", "ratio"], rows,
                     report={"kappa_s": kappa_constant(s)})
    ratios = [r[4] for r in rows]
    print(f"wrote {out}; ratio range [{min(ratios):.4f}, {max(ratios):.4f}]")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="fraclab",
        description="numerical laboratory for nonlocal Dirichlet problems")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: all cores, or FRACLAB_THREADS)")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, flags, defaults=None, fallbacks=None):
        """A subcommand with its flags; ``defaults`` enter the resolved
        config, ``fallbacks`` are read in place of an absent key but stay
        out of it."""
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--out", default=None)
        for flag, typ in flags.items():
            sp.add_argument(f"--{flag}", type=typ, default=None)
        sp.set_defaults(fn=fn, flags=("out", *flags), defaults=defaults or {},
                        fallbacks=fallbacks or {})

    walk = {"paths": 100000, "seed": 0}
    add("validate-kernel", cmd_validate_kernel,
        {"s": float, "dim": int, "samples": int},
        defaults={"dim": 2, "samples": 1000})
    add("apply-op", cmd_apply_op,
        {"s": float, "dim": int, "field": str, "points": str,
         "rel-tol": float},
        defaults={"dim": 2}, fallbacks={"rel-tol": 1e-6})
    add("verify-barrier", cmd_verify_barrier,
        {"kind": str, "s": float, "alpha": float, "beta": float,
         "eta": float},
        fallbacks={"eta": 1.0, "rel-tol": 1e-5})
    add("solve", cmd_solve,
        {"domain": str, "data": str, "s": float, "points": str,
         "points-file": str, "paths": int, "seed": int},
        defaults={"s": 0.5, **walk})
    add("profile", cmd_profile,
        {"domain": str, "data": str, "s": float, "z0": str, "tmin": float,
         "tmax": float, "n": int, "paths": int, "seed": int},
        defaults={"s": 0.5, "tmin": 1e-4, "tmax": 1e-2, "n": 12, **walk})
    add("fit", cmd_fit, {"input": str, "s": float})
    add("experiment", cmd_experiment,
        {"domain": str, "alpha": float, "s": float, "paths": int,
         "seed": int},
        defaults={"domain": "ball", "s": 0.5, **walk})
    add("counterexample", cmd_counterexample,
        {"s": float, "tmin": float, "tmax": float, "n": int},
        defaults={"s": 0.5, "tmin": 1e-4, "tmax": 1e-1, "n": 25})
    return p


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FracLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
