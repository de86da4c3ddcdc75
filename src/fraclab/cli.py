"""Command-line entry point.

One binary with subcommands; every run resolves its configuration (config
file plus flag overrides, flags win), embeds the resolved config hash in the
CSV header comment and writes a JSON sidecar with the full config, package
versions, seed and wall time.  Outputs are byte-identical for identical
(config, seed): floats are formatted with a fixed precision and all
parallelism preserves input order.

Exit codes: 0 success / verification PASS, 2 verification FAIL, 1 error.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .barriers import (counterexample_min_rs_1, data_from_config,
                       verify_cone_barrier, verify_halfspace_supersolution,
                       verify_psi_barrier)
from .errors import FracLabError, ParameterError
from .fields import ConeBarrier, HalfSpacePower, PsiPower
from .geometry import (Ball, Polygon, StarShaped, domain_from_config,
                       unit_square)
from .kernels import kernel_from_config, make_fractional_laplacian, validate_kernel
from .nonlocal_op import QuadratureSpec, apply_L
from .regularity import (boundary_profile, exponent_experiment, fit_holder,
                         BoundaryProfile, wos_solver)
from .wos import WoSConfig, halfplane_poisson, kappa_constant, solve

_FLOAT_FMT = ".12g"


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return format(float(v), _FLOAT_FMT)
    return str(v)


def _config_blob(cfg):
    body = {k: v for k, v in cfg.items() if k != "out"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _config_hash(cfg):
    return hashlib.sha256(_config_blob(cfg).encode()).hexdigest()[:16]


def _write_csv(path, header, rows, cfg):
    lines = [f"# fraclab config_hash={_config_hash(cfg)}",
             f"# config={_config_blob(cfg)}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    data = "\n".join(lines) + "\n"
    with open(path, "w", newline="") as f:
        f.write(data)


def _write_sidecar(path, cfg, seed, wall_time, report=None):
    side = {
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "versions": {"fraclab": __version__, "numpy": np.__version__},
        "seed": seed,
        "wall_time": wall_time,
    }
    if report is not None:
        side["report"] = report
    with open(path + ".meta.json", "w") as f:
        json.dump(side, f, indent=2, sort_keys=True)
        f.write("\n")


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


def _parse_points(spec):
    pts = []
    for chunk in spec.split(";"):
        pts.append([float(v) for v in chunk.split(",")])
    return pts


def _load_json_arg(text):
    return json.loads(text)


def _domain_arg(text):
    if text == "ball":
        return Ball([0.0, 0.0], 1.0)
    if text == "square":
        return unit_square()
    return domain_from_config(_load_json_arg(text))


def _resolve(args, keys):
    """Resolved config: file values overridden by present flags."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            cfg.update(json.load(f))
    for k in keys:
        v = getattr(args, k.replace("-", "_"), None)
        if v is not None:
            cfg[k] = v
    return cfg


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate_kernel(args):
    cfg = _resolve(args, ["s", "dim", "samples", "out"])
    cfg.setdefault("dim", 2)
    cfg.setdefault("samples", 1000)
    cfg["command"] = "validate-kernel"
    if "kernel" in cfg:
        kernel = kernel_from_config(cfg["kernel"])
    else:
        kernel = make_fractional_laplacian(cfg["s"], cfg["dim"])
        cfg["kernel"] = {"type": "frac_lap", "s": cfg["s"], "dim": cfg["dim"]}
    t0 = time.time()
    rep = validate_kernel(kernel, samples=cfg["samples"])
    report = {
        "samples": rep.samples,
        "max_symmetry_violation": rep.max_symmetry_violation,
        "worst_lower_margin": rep.worst_lower_margin,
        "worst_upper_margin": rep.worst_upper_margin,
        "ok": rep.ok,
    }
    out = cfg.get("out", "validate_kernel.json")
    with open(out, "w") as f:
        json.dump({"config": cfg, "config_hash": _config_hash(cfg),
                   "report": report}, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_sidecar(out, cfg, seed=None, wall_time=time.time() - t0,
                   report=report)
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


def cmd_apply_op(args):
    cfg = _resolve(args, ["s", "dim", "field", "points", "rel-tol", "out"])
    cfg.setdefault("dim", 2)
    cfg["command"] = "apply-op"
    field_cfg = cfg["field"]
    if isinstance(field_cfg, str):
        field_cfg = _load_json_arg(field_cfg)
        cfg["field"] = field_cfg
    name = field_cfg["name"]
    if name not in _FIELDS:
        raise FracLabError(f"unknown field {name!r}; known: {sorted(_FIELDS)}")
    u = _FIELDS[name](field_cfg)
    kernel = make_fractional_laplacian(cfg["s"], cfg["dim"])
    pts = cfg["points"]
    if isinstance(pts, str):
        pts = _parse_points(pts)
        cfg["points"] = pts
    q = QuadratureSpec(target_rel_tol=cfg.get("rel-tol", 1e-6))
    t0 = time.time()

    def work(p):
        ov = apply_L(kernel, u, np.asarray(p, dtype=float), q=q)
        return (*p, ov.value, ov.err_estimate, ov.near_part, ov.far_part)

    with ThreadPoolExecutor(max_workers=_threads(args)) as ex:
        rows = list(ex.map(work, pts))
    out = cfg.get("out", "apply_op.csv")
    coords = [f"x{i+1}" for i in range(len(pts[0]))]
    _write_csv(out, coords + ["value", "err_estimate", "near_part", "far_part"],
               rows, cfg)
    _write_sidecar(out, cfg, seed=None, wall_time=time.time() - t0)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def cmd_verify_barrier(args):
    cfg = _resolve(args, ["kind", "s", "alpha", "beta", "eta", "out"])
    cfg["command"] = "verify-barrier"
    kind = cfg["kind"]
    s = cfg["s"]
    t0 = time.time()
    q = QuadratureSpec(target_rel_tol=cfg.get("rel-tol", 1e-5))
    if kind == "halfspace":
        kernel = make_fractional_laplacian(s, 2)
        heights = np.geomspace(0.25, 4.0, 10)
        pts = [np.array([0.3 * h, h]) for h in heights]
        rep = verify_halfspace_supersolution(kernel, cfg["alpha"], pts, q=q)
    elif kind == "psi":
        kernel = make_fractional_laplacian(s, 2)
        rep = verify_psi_barrier(kernel, Ball([0.0, 0.0], 1.0), cfg["alpha"],
                                 q=q)
    elif kind == "cone":
        kernel = make_fractional_laplacian(s, 2)
        eta = cfg.get("eta", 1.0)
        rep = verify_cone_barrier(kernel, (0.0, 1.0), eta, cfg["beta"], q=q)
    else:
        raise FracLabError(f"unknown barrier kind {kind!r}")
    out = cfg.get("out", f"verify_{kind}.json")
    body = rep.to_jsonable()
    with open(out, "w") as f:
        json.dump({"config": cfg, "config_hash": _config_hash(cfg),
                   "report": body}, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_sidecar(out, cfg, seed=None, wall_time=time.time() - t0,
                   report={"pass": rep.passed})
    print(("PASS" if rep.passed else "FAIL"),
          f"{kind} barrier: min value {rep.min_value:.6g}, "
          f"min margin {rep.min_margin:.3g}x err")
    return 0 if rep.passed else 2


def cmd_solve(args):
    cfg = _resolve(args, ["domain", "data", "s", "points", "points-file",
                          "paths", "seed", "out"])
    cfg.setdefault("s", 0.5)
    cfg.setdefault("paths", 100000)
    cfg.setdefault("seed", 0)
    cfg["command"] = "solve"
    dom = _domain_arg(cfg["domain"]) if isinstance(cfg["domain"], str) \
        else domain_from_config(cfg["domain"])
    data_cfg = cfg["data"]
    if isinstance(data_cfg, str):
        data_cfg = _load_json_arg(data_cfg)
        cfg["data"] = data_cfg
    g = data_from_config(data_cfg)
    if cfg.get("points-file"):
        pts = np.loadtxt(cfg["points-file"], delimiter=",", comments="#",
                         ndmin=2).tolist()
        cfg["points"] = pts
    else:
        pts = cfg["points"]
        if isinstance(pts, str):
            pts = _parse_points(pts)
            cfg["points"] = pts
    kernel = make_fractional_laplacian(cfg["s"], dom.dim)
    wcfg = WoSConfig(paths=cfg["paths"], seed=cfg["seed"])
    t0 = time.time()

    def work(item):
        i, p = item
        out = solve(dom, g, p, kernel, wcfg, point_index=i)
        return (*p, out.estimate, out.stderr, out.mean_steps,
                out.snapped_fraction)

    with ThreadPoolExecutor(max_workers=_threads(args)) as ex:
        rows = list(ex.map(work, enumerate(pts)))
    out = cfg.get("out", "solve.csv")
    _write_csv(out, ["x1", "x2", "estimate", "stderr", "mean_steps",
                     "snapped_fraction"], rows, cfg)
    _write_sidecar(out, cfg, seed=cfg["seed"], wall_time=time.time() - t0)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def cmd_profile(args):
    cfg = _resolve(args, ["domain", "data", "s", "z0", "tmin", "tmax", "n",
                          "paths", "seed", "out"])
    cfg.setdefault("s", 0.5)
    cfg.setdefault("tmin", 1e-4)
    cfg.setdefault("tmax", 1e-2)
    cfg.setdefault("n", 12)
    cfg.setdefault("paths", 100000)
    cfg.setdefault("seed", 0)
    cfg["command"] = "profile"
    dom = _domain_arg(cfg["domain"]) if isinstance(cfg["domain"], str) \
        else domain_from_config(cfg["domain"])
    data_cfg = cfg["data"]
    if isinstance(data_cfg, str):
        data_cfg = _load_json_arg(data_cfg)
        cfg["data"] = data_cfg
    g = data_from_config(data_cfg)
    z0 = cfg.get("z0")
    if isinstance(z0, str):
        z0 = [float(v) for v in z0.split(",")]
        cfg["z0"] = z0
    if z0 is None:
        z0 = list(g.singular_points[0])
        cfg["z0"] = z0
    kernel = make_fractional_laplacian(cfg["s"], dom.dim)
    wcfg = WoSConfig(paths=cfg["paths"], seed=cfg["seed"])
    t_grid = np.geomspace(cfg["tmin"], cfg["tmax"], cfg["n"]) * dom.diameter
    t0 = time.time()
    prof = boundary_profile(wos_solver(dom, g, kernel, wcfg), dom, g,
                            np.asarray(z0, dtype=float), t_grid)
    rows = list(zip(prof.t, prof.values, prof.stderr))
    out = cfg.get("out", "profile.csv")
    _write_csv(out, ["t", "value", "stderr"], rows, cfg)
    _write_sidecar(out, cfg, seed=cfg["seed"], wall_time=time.time() - t0,
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
    cfg = _resolve(args, ["input", "s", "out"])
    cfg["command"] = "fit"
    t0 = time.time()
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
    out = cfg.get("out", "fit.json")
    with open(out, "w") as f:
        json.dump({"config": cfg, "config_hash": _config_hash(cfg),
                   "report": report}, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_sidecar(out, cfg, seed=None, wall_time=time.time() - t0,
                   report=report)
    print(f"alpha_hat={fit.alpha_hat:.4f} model={fit.model}")
    return 0


def cmd_experiment(args):
    cfg = _resolve(args, ["domain", "alpha", "s", "paths", "seed", "out"])
    cfg.setdefault("domain", "ball")
    cfg.setdefault("s", 0.5)
    cfg.setdefault("paths", 100000)
    cfg.setdefault("seed", 0)
    cfg["command"] = "experiment"
    if "alpha" not in cfg:
        raise ParameterError("experiment needs the datum's exponent alpha "
                             "(--alpha or the config file)")
    dom = _domain_arg(cfg["domain"]) if isinstance(cfg["domain"], str) \
        else domain_from_config(cfg["domain"])
    from .barriers import holder_point_singularity
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
    wcfg = WoSConfig(paths=cfg["paths"], seed=cfg["seed"])
    t0 = time.time()
    rep = exponent_experiment(dom, g, cfg["s"], cfg=wcfg)
    rows = []
    for (z0, fit), prof in zip(rep.fits, rep.profiles):
        for t, v, e in zip(prof.t, prof.values, prof.stderr):
            rows.append((*z0, t, v, e, fit.alpha_hat, fit.model))
    out = cfg.get("out", "experiment.csv")
    _write_csv(out, ["z0_x", "z0_y"][:dom.dim]
               + ["t", "value", "stderr", "alpha_hat", "model"], rows, cfg)
    _write_sidecar(out, cfg, seed=cfg["seed"], wall_time=time.time() - t0,
                   report=rep.to_jsonable())
    print(f"alpha_hat={rep.alpha_hat:.4f} expected={rep.expected_exponent} "
          f"verdict: {rep.verdict}")
    ok = "deviates" not in rep.verdict and "no log" not in rep.verdict
    return 0 if ok else 2


def cmd_counterexample(args):
    cfg = _resolve(args, ["s", "tmin", "tmax", "n", "out"])
    cfg.setdefault("s", 0.5)
    cfg.setdefault("tmin", 1e-4)
    cfg.setdefault("tmax", 1e-1)
    cfg.setdefault("n", 25)
    cfg["command"] = "counterexample"
    s = cfg["s"]
    g = counterexample_min_rs_1(s)
    ts = np.geomspace(cfg["tmin"], cfg["tmax"], cfg["n"])
    t0 = time.time()

    def work(t):
        v, e = halfplane_poisson(g, [0.0, t], s)
        base = t ** s * np.log(1.0 / t)
        return (t, v, t ** s, base, v / base)

    with ThreadPoolExecutor(max_workers=_threads(args)) as ex:
        rows = list(ex.map(work, ts))
    out = cfg.get("out", "counterexample.csv")
    _write_csv(out, ["t", "u", "t_pow_s", "t_pow_s_log", "ratio"], rows, cfg)
    _write_sidecar(out, cfg, seed=None, wall_time=time.time() - t0,
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

    def add(name, fn, flags):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--out", default=None)
        for flag, typ in flags:
            sp.add_argument(f"--{flag}", type=typ, default=None)
        sp.set_defaults(fn=fn)

    add("validate-kernel", cmd_validate_kernel,
        [("s", float), ("dim", int), ("samples", int)])
    add("apply-op", cmd_apply_op,
        [("s", float), ("dim", int), ("field", str), ("points", str),
         ("rel-tol", float)])
    add("verify-barrier", cmd_verify_barrier,
        [("kind", str), ("s", float), ("alpha", float), ("beta", float),
         ("eta", float)])
    add("solve", cmd_solve,
        [("domain", str), ("data", str), ("s", float), ("points", str),
         ("points-file", str), ("paths", int), ("seed", int)])
    add("profile", cmd_profile,
        [("domain", str), ("data", str), ("s", float), ("z0", str),
         ("tmin", float), ("tmax", float), ("n", int), ("paths", int),
         ("seed", int)])
    add("fit", cmd_fit, [("input", str), ("s", float)])
    add("experiment", cmd_experiment,
        [("domain", str), ("alpha", float), ("s", float), ("paths", int),
         ("seed", int)])
    add("counterexample", cmd_counterexample,
        [("s", float), ("tmin", float), ("tmax", float), ("n", int)])
    return p


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FracLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
