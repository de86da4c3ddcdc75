"""Boundary profiles, Hoelder-exponent fits, and the exponent experiments.

A profile samples u(z0 + t n) - g(z0) along the inward normal; the fitter
regresses log |value| on log t (weights from the reported standard errors)
and, when the order s is supplied, also fits the log-corrected model
A t^s log(1/t) + B t^s, selecting between the two by an AIC-style penalized
residual.  The experiments wire profiles and fits together and compare the
fitted exponent against the expected min(alpha, s).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientDataError, ParameterError
from .geometry import Ball
from .wos import _refuse_order, halfplane_poisson, solve_points


@dataclass(frozen=True)
class BoundaryProfile:
    z0: tuple
    normal: tuple
    t: tuple
    values: tuple          # u(z0 + t n) - g0
    stderr: tuple
    g0: float


@dataclass(frozen=True)
class HolderFit:
    alpha_hat: float
    constant_hat: float
    log_coeff: float       # A in A t^s log(1/t) + B t^s; 0 for the plain model
    model: str             # "plain" | "log_corrected"
    residual_rms: float
    window: tuple
    half_window_slopes: tuple = (np.nan, np.nan)
    aic_plain: float = np.nan
    aic_log: float = np.nan
    n_used: int = 0


def _wls_line(x, y, w):
    W = np.sum(w)
    xm = np.sum(w * x) / W
    ym = np.sum(w * y) / W
    slope = np.sum(w * (x - xm) * (y - ym)) / np.sum(w * (x - xm) ** 2)
    return slope, ym - slope * xm


def fit_holder(profile, s=None):
    """Fit the boundary decay exponent of a profile.

    alpha_hat is always the plain log-log slope; when s is given the
    log-corrected model is fit as well and ``model`` records which one the
    penalized residual prefers.  An s outside (0, 1) is refused by name.
    """
    if s is not None:
        _refuse_order(s)
    t = np.asarray(profile.t, dtype=float)
    v = np.asarray(profile.values, dtype=float)
    se = np.asarray(profile.stderr, dtype=float)
    usable = np.abs(v) > 3.0 * se
    usable &= np.abs(v) > 0.0
    if int(np.sum(usable)) < 6:
        raise InsufficientDataError(
            f"need >= 6 samples with |value| > 3 stderr, have {int(np.sum(usable))}")
    t, v, se = t[usable], v[usable], se[usable]
    n = len(t)

    x = np.log(t)
    y = np.log(np.abs(v))
    sigma_log = np.where(se > 0, se / np.abs(v), 0.0)
    w_log = 1.0 / sigma_log ** 2 if np.all(sigma_log > 0) else np.ones(n)
    slope, intercept = _wls_line(x, y, w_log)
    const = float(np.exp(intercept))
    sign = np.sign(np.median(v))
    pred_plain = sign * const * t ** slope

    w_val = 1.0 / se ** 2 if np.all(se > 0) else np.ones(n)
    rss_plain = float(np.sum(w_val * (v - pred_plain) ** 2))
    aic_plain = n * np.log(max(rss_plain, 1e-300) / n) + 2.0 * 2

    log_coeff = 0.0
    model = "plain"
    aic_log = np.nan
    rss_sel = rss_plain
    if s is not None:
        basis = np.stack([t ** s * np.log(1.0 / t), t ** s], axis=1)
        sw = np.sqrt(w_val)
        coef, *_ = np.linalg.lstsq(basis * sw[:, None], v * sw, rcond=None)
        pred_log = basis @ coef
        rss_log = float(np.sum(w_val * (v - pred_log) ** 2))
        aic_log = n * np.log(max(rss_log, 1e-300) / n) + 2.0 * 2
        if aic_log < aic_plain:
            model = "log_corrected"
            log_coeff = float(coef[0])
            rss_sel = rss_log

    # window-sensitivity diagnostic: slopes on the two half windows
    halves = (np.nan, np.nan)
    mid = int(n // 2)
    if mid >= 3 and n - mid >= 3:
        s1, _ = _wls_line(x[:mid], y[:mid], w_log[:mid])
        s2, _ = _wls_line(x[mid:], y[mid:], w_log[mid:])
        halves = (float(s1), float(s2))

    return HolderFit(
        alpha_hat=float(slope), constant_hat=const, log_coeff=log_coeff,
        model=model, residual_rms=float(np.sqrt(rss_sel / n)),
        window=(float(np.min(t)), float(np.max(t))),
        half_window_slopes=halves,
        aic_plain=float(aic_plain), aic_log=float(aic_log), n_used=n)


# ---------------------------------------------------------------------------
# solver adapters: callable(xs, indices) -> [(value, stderr), ...], one pair
# per point of xs, point xs[k] on the streams of indices[k]

def wos_solver(dom, g, kernel, cfg, record=None):
    """A walk-on-spheres solver: the points of one call walk together
    (``solve_points``); each point's SolutionSample is appended to the list
    ``record`` when one is given."""
    def run(xs, indices):
        out = solve_points(dom, g, xs, kernel, cfg, indices)
        if record is not None:
            record.extend(out)
        return [(o.estimate, o.stderr) for o in out]
    return run


def halfplane_solver(g, s):
    def run(xs, indices):
        return [halfplane_poisson(g, x, s) for x in xs]
    return run


def boundary_profile(solver, dom, g, z0, t_grid, normal=None):
    """Evaluate u - g(z0) along the inward normal at z0 via the supplied
    solver, in one call ``solver(xs, indices)`` that takes every interior
    grid point, the k-th depth of the sorted grid with index k;
    non-interior grid points are trimmed with a warning.  A z0 that is not
    a finite point of the domain's dimension raises a ParameterError; a z0
    farther than 1e-9 diameters (1e-9 on an unbounded domain) from the
    boundary, and a grid with no interior point, raise a DomainError; each
    names z0."""
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (dom.dim,) or not np.all(np.isfinite(z0)):
        raise ParameterError(
            f"z0 must be a finite point of dimension {dom.dim}, "
            f"got {z0.tolist()}")
    off = abs(float(dom.signed_dist(z0)))
    if off > 1e-9 * (dom.diameter if dom.bounded else 1.0):
        raise DomainError(
            f"z0 = {z0.tolist()} lies {off:.3g} off the boundary: a "
            "profile starts on the boundary")
    if normal is None:
        normal = inward_normal(dom, z0)
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    g0 = float(g(z0))
    grid = np.sort(np.asarray(t_grid, dtype=float))
    inside = np.array([dom.contains(z0 + t * normal) for t in grid], bool)
    if not inside.any():
        raise DomainError(
            f"no depth of the profile at z0 = {z0.tolist()} is interior: "
            "z0 must lie on the boundary")
    for t in grid[~inside]:
        warnings.warn(f"profile point at t={t:g} is not interior; trimmed")
    ks = np.flatnonzero(inside).tolist()
    ts = grid[ks].tolist()
    out = solver([z0 + t * normal for t in ts], ks)
    vals = [float(v) - g0 for v, _ in out]
    errs = [float(e) for _, e in out]
    return BoundaryProfile(z0=tuple(z0.tolist()), normal=tuple(normal.tolist()),
                           t=tuple(ts), values=tuple(vals), stderr=tuple(errs),
                           g0=g0)


def inward_normal(dom, z0):
    """Inward direction at a boundary point: the direction maximizing the
    distance to the complement a small step in, 1e-3 times the diameter (1e-3
    on an unbounded domain).  At polygon corners this is the corner
    bisector."""
    z0 = np.asarray(z0, dtype=float)
    if isinstance(dom, Ball):
        v = dom.center - z0
        return v / np.linalg.norm(v)
    probe = 1e-3 * dom.diameter if dom.bounded else 1e-3
    phis = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    dirs = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    pts = z0[None, :] + probe * dirs
    dd = np.asarray(dom.dist(pts))
    k = int(np.argmax(dd))
    if dd[k] <= 0:
        raise DomainError("no inward direction found; is z0 on the boundary?")
    return dirs[k]


@dataclass(frozen=True)
class ExperimentReport:
    s: float
    alpha_declared: float
    expected_exponent: float
    alpha_hat: float
    log_corrected: bool
    verdict: str
    anchor: tuple
    fits: tuple            # (z0, HolderFit) pairs
    profiles: tuple = field(default=(), repr=False)

    def to_jsonable(self):
        return {
            "s": self.s,
            "alpha_declared": self.alpha_declared,
            "expected_exponent": self.expected_exponent,
            "alpha_hat": self.alpha_hat,
            "log_corrected": self.log_corrected,
            "verdict": self.verdict,
            "anchor": list(self.anchor),
            "fits": [
                {"z0": list(z0), "alpha_hat": f.alpha_hat, "model": f.model,
                 "log_coeff": f.log_coeff, "residual_rms": f.residual_rms,
                 "window": list(f.window), "n_used": f.n_used}
                for z0, f in self.fits
            ],
        }


def exponent_experiment(dom, g, s, cfg=None, solver=None):
    """Profile and fit u at each singular point of the datum (a datum with
    none raises a DomainError) and compare the fitted exponent at the
    first one, the anchor, with the expected min(alpha, s), within 0.05.
    The default solver walks cfg's paths with the fractional Laplacian of
    order s, the one kernel ``solve_points`` takes.

    The alpha = s case is flagged for the log correction rather than judged
    on the plain exponent alone.
    """
    from .kernels import make_fractional_laplacian

    kernel = make_fractional_laplacian(s, dom.dim)
    tol = 0.05
    # the asymptotic exponent emerges only below ~1e-3 relative depth, and
    # path counts of 1e5 keep the SNR ample down to 1e-4
    t_grid = np.geomspace(1e-4, 1e-2, 12) * dom.diameter
    if not g.singular_points:
        raise DomainError("the datum has no singular point to anchor the "
                          "experiment")
    if solver is None:
        solver = wos_solver(dom, g, kernel, cfg)

    fits = []
    profiles = []
    for j, z0 in enumerate(g.singular_points):
        # singular point j walks depth k on the streams of j * len(t_grid) + k
        prof = boundary_profile(
            lambda xs, ks: solver(xs, [j * len(t_grid) + k for k in ks]),
            dom, g, z0, t_grid)
        profiles.append(prof)
        fits.append((prof.z0, fit_holder(prof, s=s)))

    anchor_z0, anchor_fit = fits[0]
    expected = min(g.alpha, s)
    log_case = abs(g.alpha - s) < 1e-12
    got = anchor_fit.alpha_hat
    if log_case:
        verdict = ("log-corrected boundary behavior detected"
                   if anchor_fit.model == "log_corrected"
                   else "alpha = s but no log correction detected")
    elif abs(got - expected) <= tol:
        verdict = f"exponent {got:.3f} matches expected {expected:.3f}"
    else:
        verdict = (f"exponent {got:.3f} deviates from expected "
                   f"{expected:.3f} by more than {tol}")
    return ExperimentReport(
        s=float(s), alpha_declared=float(g.alpha),
        expected_exponent=float(expected), alpha_hat=float(got),
        log_corrected=anchor_fit.model == "log_corrected",
        verdict=verdict, anchor=anchor_z0, fits=tuple(fits),
        profiles=tuple(profiles))
