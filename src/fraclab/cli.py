"""Command-line entry point.

One binary with subcommands, run through one path: ``build_parser``
declares each subcommand's flags, the form of each flag's value (int,
float, text, record, points, point or path) and the defaults.
``_resolve`` merges the config file's values and the present flags, which
win, takes each winning flag value through its form in ``_FORMS`` (a
string is parsed; a config file may give in place of the string what the
form allows, such as an integral float for an int or a dict for a record,
but a path only as a string), then applies the defaults.  Argparse only
splits the command line; ``--threads`` and ``FRACLAB_THREADS`` take the
int form too.  A parameter that is missing or does not parse, from a flag
or the file alike, and a config-file key that the command neither declares
nor reads, raise a ParameterError naming it, as ``errors.build_record``
does an unknown variant or key and a missing required key of a domain,
datum, field (``_FIELDS``) or kernel record.  ``_write_csv`` and
``_write_report`` write every output: the CSV embeds the resolved config
and its hash in comment lines, and a JSON sidecar ``<out>.meta.json``
carries the config, package and Python versions, platform, worker threads,
seed and wall time, and the run's report (for ``solve``, ``profile`` and
``experiment``, each walked point's diagnostics; for ``apply-op`` and
``verify-barrier``, each operator point's quadrature diagnostics and the
ToleranceWarnings raised; for ``counterexample``, each depth's quadrature
error estimate).  Outputs are byte-identical for identical (config, seed):
floats have a fixed precision and ``_map`` keeps input order.

Exit codes: 0 success / verification PASS, 2 verification FAIL, 1 error;
argparse's usage errors (an unknown flag or subcommand) also exit 2.
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
from functools import cache, partial

import numpy as np
import scipy

from . import __version__
from .barriers import (counterexample_min_rs_1, data_from_config,
                       verify_cone_barrier, verify_halfspace_supersolution,
                       verify_psi_barrier)
from .errors import (FracLabError, ParameterError, ToleranceWarning,
                     build_record)
from .fields import ConeBarrier, HalfSpacePower, PsiPower
from .geometry import (Ball, Polygon, StarShaped, domain_from_config,
                       unit_square)
from .kernels import (kernel_from_config, kernel_to_config,
                      make_fractional_laplacian, validate_kernel)
from .nonlocal_op import QuadratureSpec, apply_L_many
from .regularity import (boundary_profile, exponent_experiment, fit_holder,
                         BoundaryProfile, wos_solver)
from .wos import WoSConfig, halfplane_poisson, kappa_constant, solve_points

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


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_point(v):
    return isinstance(v, list) and len(v) > 0 and all(map(_is_number, v))


# the forms of a flag's value: the parser of its string, and the test of
# what a config file may give in place of the string
_FORMS = {
    "int": (int, lambda v: type(v) is int
            or isinstance(v, float) and v.is_integer()),
    "float": (float, _is_number),
    "text": (str, lambda v: isinstance(v, dict)),
    "record": (json.loads, lambda v: isinstance(v, dict)),
    "points": (lambda text: [_floats(p) for p in text.split(";")],
               lambda v: isinstance(v, list) and len(v) > 0
               and all(map(_is_point, v))),
    "point": (_floats, _is_point),
    # a path is used as given, so a file may give only its string
    "path": (str, lambda v: False),
}


def _take(form, v):
    """v in the given form: a string parsed, any other value taken if the
    form allows it in place of the string (an integral float as an int)."""
    parse, allows = _FORMS[form]
    if isinstance(v, str):
        return parse(v)
    if not allows(v):
        raise ValueError(f"not a string, nor a value of the {form} form")
    return int(v) if form == "int" else v


def _resolve(args):
    """The run's config: file values overridden by present flags, each
    winning value of a flag taken in that flag's form, then the declared
    defaults.  A file key that the command neither declares nor reads is
    refused by name."""
    cfg = Config(args.command, args.flags, args.fallbacks, _threads(args))
    given = {}
    if args.config:
        with open(args.config) as f:
            given = _build(vars(args), "config", lambda _: dict(json.load(f)))
        unknown = sorted(set(given) - {*args.flags, *args.fallbacks,
                                       *args.records, "command"})
        if unknown:
            raise ParameterError(
                f"{args.command} takes no {', '.join(map(repr, unknown))} "
                f"(config file {args.config})")
    # a file value that a present flag replaces is not checked
    parsed = vars(args)
    given.update({k: parsed[k] for k in args.flags if parsed[k] is not None})
    for k, v in given.items():
        form = args.flags.get(k)
        cfg[k] = v if form is None else _build(given, k, partial(_take, form))
    for k, v in args.defaults.items():
        cfg.setdefault(k, v)
    cfg["command"] = args.command
    if cfg.get("points-file"):
        cfg["points"] = _build(cfg, "points-file", lambda path: np.loadtxt(
            path, delimiter=",", comments="#", ndmin=2).tolist())
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
    """--threads, else FRACLAB_THREADS, else every core, in the int form."""
    key, n = "threads", args.threads
    if n is None:
        key = "threads (FRACLAB_THREADS)"
        n = os.environ.get("FRACLAB_THREADS") or os.cpu_count() or 1
    n = _build({key: n}, key, partial(_take, "int"))
    if n < 1:
        raise ParameterError(f"threads must be >= 1 (got {n})")
    return n


def _map(cfg, fn, items):
    """[fn(item) for item in items] on the worker threads, in input order;
    inline, without a pool, on one thread or one item."""
    if min(cfg.threads, len(items)) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
        return list(ex.map(fn, items))


def _chunks(n, parts):
    """range(n) cut into min(parts, n) contiguous runs of near-equal
    length."""
    parts = min(parts, n)
    return [range(n * i // parts, n * (i + 1) // parts) for i in range(parts)]


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
        kernel = _build(cfg, "kernel", kernel_from_config)
        # a value the record does not hold would be recorded, not validated
        clash = [f"--{k} {cfg[k]}" for k, v in (("s", kernel.s),
                                               ("dim", kernel.dim))
                 if k in cfg and cfg[k] != v]
        if clash:
            raise ParameterError(
                f"validate-kernel got {' and '.join(clash)} beside a kernel "
                f"record of s {kernel.s} and dim {kernel.dim}")
    else:
        kernel = make_fractional_laplacian(cfg["s"], cfg["dim"])
        cfg["kernel"] = kernel_to_config(kernel)
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


# each field's constructor and the keys of its record besides "name"
_FIELDS = {
    "halfspace_power": (lambda alpha, nu=(0.0, 1.0): HalfSpacePower(nu, alpha),
                        ("alpha", "nu")),
    "psi_power_ball": (lambda alpha, center=(0.0, 0.0), radius=1.0:
                       PsiPower(Ball(center, radius), alpha),
                       ("alpha", "center", "radius")),
    "cone_barrier": (lambda beta, e=(0.0, 1.0), eta=1.0:
                     ConeBarrier(e, eta, beta), ("beta", "e", "eta")),
}


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
    u = _build(cfg, "field",
               partial(build_record, "field", _FIELDS, tag="name"))
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


def _walk_config(cfg):
    """The WoSConfig of a walk-on-spheres command."""
    return WoSConfig(paths=cfg["paths"], seed=cfg["seed"])


def _walk_setup(cfg):
    """Domain, datum, kernel and WoS config of a walk-on-spheres command."""
    dom = _domain(cfg)
    g = _build(cfg, "data", data_from_config)
    kernel = make_fractional_laplacian(cfg["s"], dom.dim)
    return dom, g, kernel, _walk_config(cfg)


_WALK_DIAGNOSTICS = ("paths_used", "n_maxed", "steps_max", "bias_bound",
                     "control_err")


def _walk_diagnostics(samples):
    """Each point's walk diagnostics, and over all points the paths and
    max_steps hits summed, the most steps and the largest bias bound."""
    points = [{"x": list(o.x), **{k: getattr(o, k) for k in _WALK_DIAGNOSTICS}}
              for o in samples]
    totals = {"paths_used": sum(o.paths_used for o in samples),
              "n_maxed": sum(o.n_maxed for o in samples),
              "steps_max": max((o.steps_max for o in samples), default=0),
              "bias_bound": max((o.bias_bound for o in samples),
                                default=0.0)}
    return {"points": points, "totals": totals}


def cmd_solve(args):
    cfg = _resolve(args)
    dom, g, kernel, wcfg = _walk_setup(cfg)
    points = cfg["points"]

    def work(chunk):
        return solve_points(dom, g, [points[i] for i in chunk], kernel, wcfg,
                            chunk)

    # one solve_points call per thread, on a contiguous run of the points
    samples = [o for part in _map(cfg, work, _chunks(len(points), cfg.threads))
               for o in part]
    rows = [(*p, o.estimate, o.stderr, o.mean_steps, o.snapped_fraction)
            for p, o in zip(points, samples)]
    out = _write_csv(cfg, _coords(dom.dim) + [
        "estimate", "stderr", "mean_steps", "snapped_fraction"], rows,
        report={"diagnostics": _walk_diagnostics(samples)})
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _depth_grid(cfg, command, upper=np.inf):
    """The n depths geomspace(tmin, tmax, n) of ``command``; a ParameterError
    naming the flag unless 0 < tmin, tmax < upper and n >= 1 (an infinite
    or NaN depth fails the bound)."""
    for key in ("tmin", "tmax"):
        if not 0.0 < cfg[key] < upper:
            raise ParameterError(
                f"{command} needs 0 < {key} < {upper:g} (--{key}), "
                f"got {cfg[key]}")
    if cfg["n"] < 1:
        raise ParameterError(f"{command} needs n >= 1 (--n), "
                             f"got {cfg['n']}")
    return np.geomspace(cfg["tmin"], cfg["tmax"], cfg["n"])


def cmd_profile(args):
    cfg = _resolve(args)
    depths = _depth_grid(cfg, "profile")
    dom, g, kernel, wcfg = _walk_setup(cfg)
    if cfg.get("z0") is None and g.singular_points:
        cfg["z0"] = list(g.singular_points[0])
    z0 = np.asarray(cfg["z0"], dtype=float)
    t_grid = depths * dom.diameter
    samples = []
    prof = boundary_profile(wos_solver(dom, g, kernel, wcfg, samples), dom, g,
                            z0, t_grid)
    rows = list(zip(prof.t, prof.values, prof.stderr))
    out = _write_csv(cfg, ["t", "value", "stderr"], rows,
                     report={"z0": list(prof.z0), "normal": list(prof.normal),
                             "g0": prof.g0,
                             "diagnostics": _walk_diagnostics(samples)})
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _read_numeric_csv(path):
    """The rows of a numeric CSV, skipping blank and ``#`` lines and one
    header line before the first row; any other line that does not parse,
    or that has another column count than the first row, is refused by its
    line number."""
    rows, header = [], False
    with open(path) as f:
        for i, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                row = None
            if row is None and not (rows or header):
                header = True
            elif row is None or rows and len(row) != len(rows[0]):
                raise ParameterError(
                    f"input {path!r} line {i} is not a numeric row of the "
                    f"table: {line!r}")
            else:
                rows.append(row)
    return np.asarray(rows, dtype=float)


def cmd_fit(args):
    cfg = _resolve(args)
    arr = _read_numeric_csv(cfg["input"])
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ParameterError(
            f"input {cfg['input']!r} has no rows of t and value to fit")
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
    cfg["data"] = {"name": "holder_point_singularity", "alpha": cfg["alpha"],
                   "z0": anchor}
    g = data_from_config(cfg["data"])
    kernel = make_fractional_laplacian(cfg["s"], dom.dim)
    samples = []
    solver = wos_solver(dom, g, kernel, _walk_config(cfg), samples)
    rep = exponent_experiment(dom, g, cfg["s"], solver=solver)
    rows = []
    for (z0, fit), prof in zip(rep.fits, rep.profiles):
        for t, v, e in zip(prof.t, prof.values, prof.stderr):
            rows.append((*z0, t, v, e, fit.alpha_hat, fit.model))
    _write_csv(cfg, ["z0_x", "z0_y"][:dom.dim]
               + ["t", "value", "stderr", "alpha_hat", "model"], rows,
               report={**rep.to_jsonable(),
                       "diagnostics": _walk_diagnostics(samples)})
    print(f"alpha_hat={rep.alpha_hat:.4f} expected={rep.expected_exponent} "
          f"verdict: {rep.verdict}")
    ok = "deviates" not in rep.verdict and "no log" not in rep.verdict
    return 0 if ok else 2


def cmd_counterexample(args):
    cfg = _resolve(args)
    s = cfg["s"]
    # the ratio divides by t^s log(1/t), which is positive only on (0, 1)
    depths = _depth_grid(cfg, "counterexample", upper=1.0)
    g = counterexample_min_rs_1(s)

    def work(t):
        v, e = halfplane_poisson(g, [0.0, t], s)
        base = t ** s * np.log(1.0 / t)
        return (t, v, t ** s, base, v / base), e

    done = _map(cfg, work, depths)
    rows = [row for row, _ in done]
    diagnostics = {
        "points": [{"t": float(row[0]), "err_estimate": e}
                   for row, e in done],
        "totals": {"points": len(done), "err_max": max(e for _, e in done)}}
    out = _write_csv(cfg, ["t", "u", "t_pow_s", "t_pow_s_log", "ratio"], rows,
                     report={"kappa_s": kappa_constant(s),
                             "diagnostics": diagnostics})
    ratios = [r[4] for r in rows]
    print(f"wrote {out}; ratio range [{min(ratios):.4f}, {max(ratios):.4f}]")
    return 0


@cache
def build_parser():
    """The parser of every subcommand, built once per process: a run reads
    the dicts it declares (flags, defaults, fallbacks) and never writes
    them."""
    p = argparse.ArgumentParser(
        prog="fraclab",
        description="numerical laboratory for nonlocal Dirichlet problems")
    p.add_argument("--threads", default=None,
                   help="worker threads (default: all cores, or FRACLAB_THREADS)")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, flags, defaults=None, fallbacks=None, records=()):
        """A subcommand with its flags, each with the form its value takes
        (a key of _FORMS); ``defaults`` enter the resolved config,
        ``fallbacks`` are read in place of an absent key but stay out of
        it, and ``records`` are the keys beyond the flags that the command
        reads or records, which a config file may carry too."""
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        flags = {"out": "path", **flags}
        for flag in flags:
            sp.add_argument(f"--{flag}", dest=flag, default=None)
        sp.set_defaults(fn=fn, flags=flags, defaults=defaults or {},
                        fallbacks=fallbacks or {}, records=records)

    walk = {"paths": 100000, "seed": 0}
    add("validate-kernel", cmd_validate_kernel,
        {"s": "float", "dim": "int", "samples": "int"},
        defaults={"samples": 1000}, fallbacks={"dim": 2}, records=("kernel",))
    add("apply-op", cmd_apply_op,
        {"s": "float", "dim": "int", "field": "record", "points": "points",
         "rel-tol": "float"},
        defaults={"dim": 2}, fallbacks={"rel-tol": 1e-6})
    add("verify-barrier", cmd_verify_barrier,
        {"kind": "text", "s": "float", "alpha": "float", "beta": "float",
         "eta": "float"},
        fallbacks={"eta": 1.0, "rel-tol": 1e-5})
    add("solve", cmd_solve,
        {"domain": "text", "data": "record", "s": "float",
         "points": "points", "points-file": "path", "paths": "int",
         "seed": "int"},
        defaults={"s": 0.5, **walk})
    add("profile", cmd_profile,
        {"domain": "text", "data": "record", "s": "float", "z0": "point",
         "tmin": "float", "tmax": "float", "n": "int", "paths": "int",
         "seed": "int"},
        defaults={"s": 0.5, "tmin": 1e-4, "tmax": 1e-2, "n": 12, **walk})
    add("fit", cmd_fit, {"input": "path", "s": "float"})
    add("experiment", cmd_experiment,
        {"domain": "text", "alpha": "float", "s": "float", "paths": "int",
         "seed": "int"},
        defaults={"domain": "ball", "s": 0.5, **walk}, records=("data",))
    add("counterexample", cmd_counterexample,
        {"s": "float", "tmin": "float", "tmax": "float", "n": "int"},
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
