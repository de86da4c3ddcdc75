"""Explicit comparison functions and their supersolution checks.

Each ``verify_*`` operation evaluates -L on a barrier at a family of points
and reports the values together with the quadrature error estimates; PASS
means every value clears its error margin.  The exponent thresholds the
theory leaves implicit (how large beta may be for the cone barrier) are
estimated by bisection, never assumed.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (ParameterError, UnsupportedVariantError,
                     build_record, real_number, real_point)
from .fields import ConeBarrier, HalfSpacePower, PsiPower
from .geometry import Ball, Cone, HalfPlane, Polygon, StarShaped
from .nonlocal_op import apply_L_many


# ---------------------------------------------------------------------------
# exterior data

@dataclass(frozen=True)
class ExteriorData:
    """Dirichlet datum on the complement of the domain with its declared
    Hoelder certificate: |g(x) - g(z)| <= C0 |x-z|^alpha for x outside and z
    on the boundary, and |g(x)| <= C0 (1 + |x|^alpha).

    ``power_anchor`` is a declaration, not an option: only
    ``holder_point_singularity`` sets it, to its anchor z0, and it states
    that g(y) is exactly C0 |y - z0|^alpha.  A disk with z0 on its circle
    then takes the closed-form harmonic extension of g (see
    ``extension.PointPowerDiskExtension``) instead of a Poisson quadrature.

    ``radial_center`` is a declaration of the same kind: it holds p when
    g(y) depends on |y - p| only, and ``counterexample_min_rs_1`` (p = 0)
    and ``capped_distance_data`` (its p) set it.  ``wos.halfplane_poisson``
    at a point x = (p1, x2) over p = (p1, 0), with every kink circle centred
    at p, then integrates g along one ray against the closed angular
    integral of the kernel instead of over the half plane.

    A certificate with alpha outside (0, 1] or C0 <= 0 bounds nothing (a
    negative C0 made the walk's bias bound negative, and alpha < 0 declared
    a datum singular at its anchor): each is refused by name."""

    fn: callable = field(repr=False)
    alpha: float = 0.5
    C0: float = 1.0
    description: str = ""
    growth: float | None = None  # payload growth for the solver; default alpha
    singular_points: tuple = ()
    kink_circles: tuple = ()     # ((center, radius), ...) where g has a kink
    power_anchor: tuple | None = None  # z0 when g is exactly C0 |y - z0|^alpha
    radial_center: tuple | None = None  # p when g depends on |y - p| only

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ParameterError(
                f"datum alpha must lie in (0, 1], got {self.alpha}")
        if not self.C0 > 0.0:
            raise ParameterError(f"datum C0 must be > 0, got {self.C0}")

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        vals = np.asarray(self.fn(pts[None, :] if single else pts), dtype=float)
        return float(vals[0]) if single else vals

    @property
    def payload_growth(self):
        return self.alpha if self.growth is None else self.growth

    def validate(self, dom, n_samples=2000, seed=0, window=8.0):
        """Sampled check of the Hoelder certificate and the growth bound on a
        bounded window around the domain; returns worst margins."""
        rng = np.random.Generator(np.random.Philox(key=seed))
        if dom.bounded:
            center = np.mean(getattr(dom, "vertices", np.atleast_2d(
                getattr(dom, "center", np.zeros(dom.dim)))), axis=0)
            radius = window * dom.diameter
        else:
            center = np.zeros(dom.dim)
            radius = window
        pts = center + (rng.random((4 * n_samples, dom.dim)) * 2.0 - 1.0) * radius
        outside = ~np.asarray(dom.contains(pts))
        pts = pts[outside][:n_samples]
        zs = np.array([_boundary_sample(dom, rng) for _ in range(64)])
        gx = self(pts)
        worst_holder = 0.0
        for z in zs:
            gz = self(z)
            dist = np.linalg.norm(pts - z, axis=1)
            ok = dist > 1e-12
            ratio = np.abs(gx[ok] - gz) / dist[ok] ** self.alpha
            worst_holder = max(worst_holder, float(np.max(ratio)))
        growth_ratio = np.max(
            np.abs(gx) / (1.0 + np.linalg.norm(pts, axis=1) ** self.alpha))
        return {
            "holder_ratio": worst_holder,
            "growth_ratio": float(growth_ratio),
            "C0": self.C0,
            "holder_ok": bool(worst_holder <= self.C0 * (1.0 + 1e-9)),
            "growth_ok": bool(growth_ratio <= self.C0 * (1.0 + 1e-9)),
        }


def _boundary_sample(dom, rng):
    if isinstance(dom, StarShaped):
        return dom.boundary_point(rng.random() * 2.0 * np.pi)
    if isinstance(dom, Ball):
        phi = rng.random() * 2.0 * np.pi
        if dom.dim == 1:
            return dom.center + np.array([dom.radius * np.sign(np.cos(phi))])
        return dom.center + dom.radius * np.array([np.cos(phi), np.sin(phi)])
    if isinstance(dom, Polygon):
        verts = dom.vertices
        k = rng.integers(len(verts))
        t = rng.random()
        return verts[k] + t * (verts[(k + 1) % len(verts)] - verts[k])
    if isinstance(dom, HalfPlane):
        tangent = np.array([-dom.normal[1], dom.normal[0]])
        return (rng.random() * 2.0 - 1.0) * 4.0 * tangent
    raise UnsupportedVariantError("no boundary sampler for this domain")


# builtin data, constructible by name from config records ------------------

def _length(v):
    """|v| over the last axis: ``np.abs`` of a length-1 axis and ``np.hypot``
    of a length-2 one, which are faster than ``np.linalg.norm`` there."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] == 1:
        return np.abs(v[..., 0])
    if v.shape[-1] == 2:
        return np.hypot(v[..., 0], v[..., 1])
    return np.linalg.norm(v, axis=-1)


def holder_point_singularity(alpha, z0, C0=1.0):
    """g(y) = C0 |y - z0|^alpha, the point-singularity datum anchored at z0.
    alpha, C0 and each coordinate of z0 must be finite numbers, each
    refused by name otherwise."""
    name = "holder_point_singularity"
    a, c0 = real_number(name, "alpha", alpha), real_number(name, "C0", C0)
    z0 = real_point(name, "z0", z0)

    def fn(pts):
        return c0 * _length(pts - z0) ** a

    return ExteriorData(fn=fn, alpha=a, C0=c0,
                        description=f"holder_point_singularity({alpha}, {z0.tolist()})",
                        singular_points=(tuple(z0.tolist()),),
                        power_anchor=tuple(z0.tolist()))


def counterexample_min_rs_1(s):
    """g(y) = min(|y|^s, 1): the sharp datum of the log-correction example;
    s must be a finite number."""
    order = real_number("counterexample_min_rs_1", "s", s)

    def fn(pts):
        return np.minimum(_length(pts) ** order, 1.0)

    return ExteriorData(fn=fn, alpha=order, C0=1.0,
                        description=f"counterexample_min_rs_1(s={s})",
                        growth=0.0, singular_points=((0.0, 0.0),),
                        kink_circles=(((0.0, 0.0), 1.0),),
                        radial_center=(0.0, 0.0))


def constant_data(value=1.0):
    """g(y) = value, a finite number."""
    v = real_number("constant", "value", value)

    def fn(pts):
        return np.full(np.asarray(pts).shape[:-1], v)

    return ExteriorData(fn=fn, alpha=0.5, C0=max(abs(v), 1.0),
                        description=f"constant({value})", growth=0.0)


def coordinate_data(axis=0):
    """g(y) = y_axis.  No finite (alpha < 1) certificate exists globally; the
    declared pair only covers a bounded window, which is what the sampled
    validation checks.  An axis that is not an int is refused by name."""
    if isinstance(axis, (bool, np.bool_)) or not isinstance(
            axis, (int, np.integer)):
        raise ParameterError(f"coordinate axis must be an int, got {axis!r}")
    axis = int(axis)

    def fn(pts):
        return np.asarray(pts, dtype=float)[..., axis]

    return ExteriorData(fn=fn, alpha=0.99, C0=8.0,
                        description=f"coordinate({axis})", growth=1.0)


def capped_distance_data(p, cap, alpha=0.9):
    """g(y) = min(|y - p|, cap): bounded and Lipschitz, hence alpha-Hoelder
    for any alpha < 1.  C0 = max(1, cap) covers both the Hoelder pairs
    (increments <= min(|x-z|, cap)) and the growth bound (|g| <= cap).  A
    cap, alpha or coordinate of p that is not a finite number, and a cap
    that is not > 0, are refused by name."""
    name = "capped_distance"
    c, a = real_number(name, "cap", cap), real_number(name, "alpha", alpha)
    if not c > 0.0:
        raise ParameterError(f"capped_distance needs cap > 0, got {cap}")
    p = real_point(name, "p", p)

    def fn(pts):
        return np.minimum(_length(pts - p), c)

    return ExteriorData(fn=fn, alpha=a, C0=max(1.0, c),
                        description=f"capped_distance({p.tolist()}, {cap})",
                        growth=0.0,
                        kink_circles=((tuple(p.tolist()), c),),
                        radial_center=tuple(p.tolist()))


# each builtin's constructor and the keys of its config record besides "name"
_BUILTIN_DATA = {
    "holder_point_singularity": (holder_point_singularity,
                                 ("alpha", "z0", "C0")),
    "counterexample_min_rs_1": (counterexample_min_rs_1, ("s",)),
    "constant": (constant_data, ("value",)),
    "coordinate": (coordinate_data, ("axis",)),
    "capped_distance": (capped_distance_data, ("p", "cap", "alpha")),
}


def data_from_config(cfg):
    """The builtin datum ``cfg["name"]`` built from the record's other keys;
    a key the builtin does not take, or a required one the record lacks,
    raises a ParameterError naming it."""
    return build_record("data builtin", _BUILTIN_DATA, cfg, tag="name")


# ---------------------------------------------------------------------------
# verification reports

@dataclass(frozen=True)
class BarrierReport:
    kind: str
    points: tuple
    values: tuple
    errors: tuple
    passed: bool
    min_value: float
    min_margin: float           # min over points of value / err_estimate
    extra: dict = field(default_factory=dict)
    # (point, OperatorValue) of every operator evaluation, diagnostic points
    # included; the operator's diagnostics, kept out of to_jsonable
    evaluations: tuple = field(default=(), repr=False)

    def to_jsonable(self):
        return {
            "kind": self.kind,
            "points": [list(p) for p in self.points],
            "values": list(self.values),
            "errors": list(self.errors),
            "pass": self.passed,
            "min_value": self.min_value,
            "min_margin": self.min_margin,
            "extra": _jsonable(self.extra),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _evaluate_at(kernel, u, points, q, diagnostic=None):
    """Values and error estimates of -Lu at ``points`` from one batched
    quadrature, which also takes the ``diagnostic`` point when one is
    given; returns them with the batch's (point, OperatorValue) pairs."""
    batch = [np.asarray(x, dtype=float) for x in points]
    if diagnostic is not None:
        batch.append(np.asarray(diagnostic, dtype=float))
    ovs = apply_L_many(kernel, u, batch, q=q) if batch else []
    own = ovs[:len(points)]
    return (np.array([ov.value for ov in own]),
            np.array([ov.err_estimate for ov in own]),
            tuple((tuple(map(float, x)), ov) for x, ov in zip(batch, ovs)))


def verify_halfspace_supersolution(kernel, alpha, points, q=None):
    """-L (x_N)_+^alpha > 0 on {x_N > 0} for alpha in (0, s), N the
    kernel's dimension: the half space of normal e_N."""
    if not 0.0 < alpha < kernel.s:
        raise ParameterError(
            f"the half-space power is a supersolution only for alpha in (0, s); "
            f"got alpha={alpha}, s={kernel.s} (alpha = s is the harmonic case)")
    u = HalfSpacePower(np.eye(kernel.dim)[-1], alpha)
    pts = [np.asarray(p, dtype=float) for p in points]
    for p in pts:
        if p @ u.domain.normal <= 0:
            raise ParameterError("all points must satisfy x_N > 0")
    # homogeneity diagnostic on the first point, in the same batch
    vals, errs, evaluations = _evaluate_at(
        kernel, u, pts, q, 2.0 * pts[0] if pts else None)
    margins = vals / np.maximum(errs, 1e-300)
    passed = bool(np.all(vals > errs))
    extra = {}
    if len(pts) >= 1:
        ratio = evaluations[-1][1].value / float(vals[0])
        expected = 2.0 ** (alpha - 2.0 * kernel.s)
        extra["homogeneity_ratio"] = ratio
        extra["homogeneity_expected"] = expected
        extra["homogeneity_rel_dev"] = abs(ratio / expected - 1.0)
    return BarrierReport(
        kind="halfspace", points=tuple(tuple(p) for p in pts),
        values=tuple(vals), errors=tuple(errs), passed=passed,
        min_value=float(np.min(vals)), min_margin=float(np.min(margins)),
        extra=extra, evaluations=evaluations)


def verify_psi_barrier(kernel, dom, alpha, band=(1e-3, 1e-1), n_points=20,
                       d_values=None, direction=0.0, q=None):
    """-L(psi^alpha) >= c0 d^{alpha-2s} near the boundary of a Ball or
    StarShaped domain, for alpha in (0, s).

    Points are taken along the inward ray at polar angle ``direction`` with
    d log-spaced in the band; explicit d_values outside the band are skipped
    and noted (the bound is a near-boundary statement only).
    """
    if not 0.0 < alpha < kernel.s:
        raise ParameterError("psi barrier requires alpha in (0, s)")
    if not isinstance(dom, (Ball, StarShaped)):
        raise UnsupportedVariantError(
            "psi barrier verification supports Ball and StarShaped domains")
    lo, hi = band
    requested = np.asarray(d_values, dtype=float) if d_values is not None \
        else np.geomspace(lo, hi, n_points)
    in_band = (requested >= lo) & (requested <= hi)
    skipped = requested[~in_band]
    ds = requested[in_band]
    u = PsiPower(dom, alpha)
    e = np.array([np.cos(direction), np.sin(direction)])
    pts = []
    for d in ds:
        if isinstance(dom, Ball):
            pts.append(dom.center + (dom.radius - d) * e)
        else:
            z = dom.boundary_point(direction)
            _, normal = dom.project(z * (1.0 - 1e-9 / np.linalg.norm(z)))
            pts.append(z + d * normal)
    vals, errs, evaluations = _evaluate_at(kernel, u, pts, q)
    two_s = 2.0 * kernel.s
    normalized = vals * ds ** (two_s - alpha)
    norm_err = errs * ds ** (two_s - alpha)
    c0 = float(np.min(normalized - norm_err))
    A = np.vstack([np.log(ds), np.ones_like(ds)]).T
    slope = float(np.linalg.lstsq(A, np.log(np.maximum(normalized, 1e-300)),
                                  rcond=None)[0][0])
    passed = bool(c0 > 0.0 and np.all(vals > errs))
    extra = {
        "d": ds, "normalized": normalized, "normalized_err": norm_err,
        "c0_hat": c0, "loglog_slope": slope, "band": (float(lo), float(hi)),
    }
    if len(skipped):
        extra["skipped_d"] = skipped
        extra["note"] = "points outside the near-boundary band were skipped"
    return BarrierReport(
        kind="psi", points=tuple(tuple(p) for p in pts),
        values=tuple(vals), errors=tuple(errs), passed=passed,
        min_value=float(np.min(vals)) if len(vals) else np.nan,
        min_margin=float(np.min(vals / np.maximum(errs, 1e-300))) if len(vals) else np.nan,
        extra=extra, evaluations=evaluations)


def cone_boundary_points(e, eta, count=16):
    """Points on e + boundary(C_{-eta}), half on each edge, radii
    log-spaced over [0.25, 4]."""
    cone = Cone(e, eta)
    n_half = count // 2
    radii = np.geomspace(0.25, 4.0, n_half)
    pts = []
    for w in cone.edge_dirs:
        for r in radii:
            pts.append(cone.axis + r * w)
    return pts[:count]


def verify_cone_barrier(kernel, e, eta, beta, points=None, q=None,
                        check_scaling=True):
    """-L Phi_beta > 0 on the shifted cone boundary e + dC_{-eta}; by
    homogeneity this makes Phi_beta a supersolution with rate d^{beta-2s}
    on the whole cone."""
    if not 0.0 < beta < 1.0:
        raise ParameterError("beta must lie in (0, 1)")
    u = ConeBarrier(e, eta, beta)
    if points is None:
        points = cone_boundary_points(e, eta)
    pts = [np.asarray(p, dtype=float) for p in points]
    lam = 2.0
    # the scaling diagnostic on the first point, in the same batch
    scaling = check_scaling and len(pts) >= 1
    vals, errs, evaluations = _evaluate_at(
        kernel, u, pts, q, lam * pts[0] if scaling else None)
    passed = bool(np.all(vals > errs))
    extra = {"beta": beta, "eta": eta}
    if scaling:
        ratio = evaluations[-1][1].value / float(vals[0])
        expected = lam ** (beta - 2.0 * kernel.s)
        extra["scaling_ratio"] = ratio
        extra["scaling_expected"] = expected
        extra["scaling_rel_dev"] = abs(ratio / expected - 1.0)
    return BarrierReport(
        kind="cone", points=tuple(tuple(p) for p in pts),
        values=tuple(vals), errors=tuple(errs), passed=passed,
        min_value=float(np.min(vals)),
        min_margin=float(np.min(vals / np.maximum(errs, 1e-300))),
        extra=extra, evaluations=evaluations)


def bracket_cone_beta0(kernel, e, eta, points=None, iters=6, q=None):
    """Empirical bracket [lo, hi] for the largest beta keeping the cone
    barrier a supersolution, by bisection on the PASS verdict between
    beta 0.02 and 0.98.

    Each verdict is ``verify_cone_barrier``'s, found with less work: the
    point of least margin (value / err_estimate) at the last beta whose
    points were all evaluated goes first, alone, and a FAIL there ends the
    verification; otherwise the other points follow in one batch, and their
    margins order the points for the next beta.  ``apply_L_many`` gives
    each point the value it gives alone, so the verdicts are those of the
    whole batch."""
    pts = cone_boundary_points(e, eta) if points is None else points
    pts = [np.asarray(p, dtype=float) for p in pts]
    order = list(range(len(pts)))      # least margin first

    def passes(beta):
        u = ConeBarrier(e, eta, beta)
        vals, errs, _ = _evaluate_at(kernel, u, [pts[order[0]]], q)
        if not vals[0] > errs[0]:
            return False
        rest_vals, rest_errs, _ = _evaluate_at(
            kernel, u, [pts[i] for i in order[1:]], q)
        vals = np.concatenate([vals, rest_vals])
        errs = np.concatenate([errs, rest_errs])
        margins = vals / np.maximum(errs, 1e-300)
        order[:] = [order[j] for j in np.argsort(margins, kind="stable")]
        return bool(np.all(vals > errs))

    beta_lo, beta_hi = 0.02, 0.98
    lo_pass = passes(beta_lo)
    hi_pass = passes(beta_hi)
    if not lo_pass:
        return {"beta_lo": 0.0, "beta_hi": beta_lo, "note": "fails already at beta_lo"}
    if hi_pass:
        return {"beta_lo": beta_hi, "beta_hi": 1.0, "note": "passes up to beta_hi"}
    lo, hi = beta_lo, beta_hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return {"beta_lo": lo, "beta_hi": hi, "note": "bisection bracket"}
