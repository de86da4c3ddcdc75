"""Pointwise evaluation of the nonlocal operator.

``apply_L`` returns the integral

    int ( u(x) - (u(x+y) + u(x-y))/2 ) K(y) dy,

i.e. the value of -Lu(x); it is positive on the barrier functions.  The
integral is computed in polar form: along each direction, the radial
quadrature of ``_quad`` handles the kernel singularity, declared kinks and
the growth of the tail; in dimension two an adaptive Clenshaw-Curtis layer
integrates the directions over a half circle (the symmetrized integrand is
even), doubled.  The radial quadrature runs on batches of directions: all
directions of the initial angular panels at once, then the 2 x 17 of each
split panel, so u is called once per stage of a batch rather than once per
direction.  Dimension one is the same call with the single direction +1.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._quad import clenshaw_curtis, radial_integrals
from .errors import DivergenceError, DomainError, ParameterError, ToleranceWarning
from .kernels import make_fractional_laplacian

_TINY = 1e-300


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs of the operator quadrature.

    ``near_fraction`` sets the near ball as a fraction of the distance from x
    to the nearest kink of u (the role the distance to the boundary plays for
    the barrier integrands).
    """

    near_fraction: float = 0.5
    radial_panels: int = 8
    angular_nodes: int = 34
    far_cutoff: float = 16.0
    target_rel_tol: float = 1e-6
    max_radial_panels: int = 400
    max_angular_panels: int = 40
    n_jacobi: int = 24

    def __post_init__(self):
        if not 0.0 < self.near_fraction <= 1.0:
            raise ParameterError("near_fraction must lie in (0, 1]")
        if self.radial_panels < 4:
            raise ParameterError("radial_panels must be >= 4")
        if self.target_rel_tol <= 0.0:
            raise ParameterError("target_rel_tol must be positive")


@dataclass(frozen=True)
class OperatorValue:
    """Quadrature estimate of -Lu(x) with its near/far split and an empirical
    absolute error estimate.  ``n_evals`` counts the radial quadrature nodes
    (each node evaluates u at x + r theta and x - r theta) and
    ``refinements`` the radial panel bisections plus the angular panel
    splits."""

    value: float
    err_estimate: float
    near_part: float
    far_part: float
    tol_ok: bool = True
    n_evals: int = 0
    refinements: int = 0

    def __float__(self):
        return self.value


def _near_radius(u, x, q):
    sr = float(u.smooth_radius(x))
    if sr <= 0.0:
        raise DomainError("x lies on a kink of u; the operator value diverges")
    scale = max(1.0, float(np.linalg.norm(np.atleast_1d(x))))
    if np.isinf(sr):
        base = 0.5 * scale
    else:
        base = q.near_fraction * sr
    return max(base, 1e-14 * scale)


def _radial(kernel, u, u_x, x, thetas, rho, q, rel_tol):
    """The radial integrals of u at x along every row of ``thetas``, each
    stage of the quadrature making one call of u."""

    def pair_avg(r, k):
        step = r[:, None] * thetas[k]
        vals = u(np.concatenate([x + step, x - step], axis=0))
        return 0.5 * (vals[:len(r)] + vals[len(r):])

    return radial_integrals(
        pair_avg, u_x, kernel.s, rho, u.radial_breakpoints(x, thetas, 1e12),
        u.growth, q.far_cutoff, rel_tol, q.n_jacobi, q.radial_panels,
        q.max_radial_panels)


def apply_L(kernel, u, x, q=None, half_circle=True):
    """Quadrature estimate of -Lu(x) for a homogeneous kernel.

    u must declare a growth exponent < 2s; otherwise the far integral
    diverges and a DivergenceError is raised.
    """
    if q is None:
        q = QuadratureSpec()
    s = kernel.s
    if u.growth >= 2.0 * s:
        raise DivergenceError(
            f"declared growth {u.growth} is not below 2s = {2 * s}; "
            "the far integral diverges")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != kernel.dim:
        raise ParameterError("point dimension does not match the kernel")
    if kernel.dim not in (1, 2):
        raise ParameterError("operator quadrature supports dim 1 and 2")

    u_x = float(u(x[None, :])[0])
    rho = _near_radius(u, x, q)

    if kernel.dim == 1:
        a_val = float(kernel.angular_density(np.array([[1.0]]))[0])
        rad = _radial(kernel, u, u_x, x, np.array([[1.0]]), rho, q,
                      q.target_rel_tol / 2.0)
        near = 2.0 * a_val * float(rad.near[0])
        far = 2.0 * a_val * float(rad.far[0])
        err = 2.0 * a_val * float(rad.err[0])
        mass = 2.0 * a_val * float(rad.mass[0])
        n_evals, refinements = rad.n_evals, rad.bisections
    else:
        near, far, err, mass, n_evals, refinements = _angular_integral(
            kernel, u, u_x, x, rho, q, half_circle)
    value = near + far

    scale = max(abs(value), 0.25 * mass, _TINY)
    tol_ok = err <= q.target_rel_tol * scale
    if not tol_ok:
        warnings.warn(
            f"operator quadrature reached err ~ {err:.2e} "
            f"(target {q.target_rel_tol:.1e} relative)", ToleranceWarning,
            stacklevel=2)
    return OperatorValue(value=value, err_estimate=err, near_part=near,
                         far_part=far, tol_ok=tol_ok, n_evals=n_evals,
                         refinements=refinements)


class _AngularPanel(NamedTuple):
    a: float
    b: float
    near: float
    far: float
    rule_err: float
    rad_err: float
    mass: float


def _angular_panels(kernel, u, u_x, x, rho, q, rad_tol, edges):
    """Evaluate the 17-node Clenshaw-Curtis panels [a, b] of ``edges`` with
    one batched radial quadrature over all their directions."""
    xs, ws = clenshaw_curtis(16)
    _, w9 = clenshaw_curtis(8)
    a, b = np.array(edges).T
    half = (b - a) / 2.0
    mid = (a + b) / 2.0
    phis = mid[:, None] + half[:, None] * xs
    theta = np.stack([np.cos(phis), np.sin(phis)], axis=-1).reshape(-1, 2)
    a_vals = np.asarray(kernel.angular_density(theta), dtype=float)
    rad = _radial(kernel, u, u_x, x, theta, rho, q, rad_tol)
    a_vals, nears, fars, errs, masses = (
        v.reshape(phis.shape)
        for v in (a_vals, rad.near, rad.far, rad.err, rad.mass))
    tot = a_vals * (nears + fars)
    fine = half * np.sum(tot * ws, axis=1)
    coarse = half * np.sum(tot[:, ::2] * w9, axis=1)
    cols = zip(a, b, half * np.sum(a_vals * nears * ws, axis=1),
               half * np.sum(a_vals * fars * ws, axis=1), np.abs(fine - coarse),
               half * np.sum(a_vals * errs * ws, axis=1),
               half * np.sum(a_vals * masses * ws, axis=1))
    panels = [_AngularPanel(*map(float, c)) for c in cols]
    return panels, rad.n_evals, rad.bisections


def _angular_integral(kernel, u, u_x, x, rho, q, half_circle):
    span = np.pi if half_circle else 2.0 * np.pi
    factor = 2.0 if half_circle else 1.0
    bps = sorted({float(b % np.pi) for b in u.angular_breakpoints(x)})
    edges = [0.0]
    for b in bps:
        for rep in (b, b + np.pi):
            if 1e-12 < rep < span - 1e-12:
                edges.append(rep)
    edges.append(span)
    edges = sorted(set(edges))
    # subdivide long segments so the initial node budget is met
    n_target = max(2, q.angular_nodes // 17)
    segments = []
    for a, b in zip(edges[:-1], edges[1:]):
        k = max(1, int(np.ceil((b - a) / (span / n_target))))
        sub = np.linspace(a, b, k + 1)
        segments.extend(zip(sub[:-1], sub[1:]))

    rad_tol = q.target_rel_tol / 3.0
    panels, n_evals, refinements = _angular_panels(
        kernel, u, u_x, x, rho, q, rad_tol, segments)

    for _ in range(24):
        value = factor * sum(p.near + p.far for p in panels)
        mass = factor * sum(p.mass for p in panels)
        rule_err = factor * sum(p.rule_err for p in panels)
        target = q.target_rel_tol * max(abs(value), 0.25 * mass, _TINY)
        if rule_err <= 0.7 * target or len(panels) >= q.max_angular_panels:
            break
        worst = max(range(len(panels)), key=lambda i: panels[i].rule_err)
        if panels[worst].rule_err <= 0.1 * target / max(len(panels), 1):
            break
        old = panels.pop(worst)
        m = 0.5 * (old.a + old.b)
        halves, ev, bis = _angular_panels(kernel, u, u_x, x, rho, q, rad_tol,
                                          [(old.a, m), (m, old.b)])
        panels.extend(halves)
        n_evals += ev
        refinements += bis + 1

    near = factor * sum(p.near for p in panels)
    far = factor * sum(p.far for p in panels)
    err = factor * sum(p.rule_err + p.rad_err for p in panels)
    mass = factor * sum(p.mass for p in panels)
    return near, far, err, mass, n_evals, refinements


def apply_L_1d(s, u, t, q=None):
    """The one-dimensional reduction: -(-Delta)^s u at t on the line, with the
    same conventions as apply_L."""
    kernel = make_fractional_laplacian(s, 1)
    return apply_L(kernel, u, np.array([float(t)]), q=q)


@dataclass(frozen=True)
class HomogeneityReport:
    degree: float
    order_drop: float          # value scales like t^(degree - 2s)
    base_value: float
    scales: tuple
    scaled_values: tuple
    expected_values: tuple
    rel_deviations: tuple
    max_rel_deviation: float


def homogeneity_check(kernel, u, x, scales, q=None):
    """Check that -(L u)(t x) = t^(a-2s) (-L u)(x) for a homogeneous field of
    degree a and a homogeneous kernel."""
    if not kernel.homogeneous:
        raise ParameterError("homogeneity check requires a homogeneous kernel")
    if u.homogeneity is None:
        raise ParameterError("field does not declare a homogeneity degree")
    a = float(u.homogeneity)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    base = apply_L(kernel, u, x, q=q)
    drop = a - 2.0 * kernel.s
    scaled, expected, devs = [], [], []
    for t in scales:
        v = apply_L(kernel, u, t * x, q=q)
        e = t ** drop * base.value
        scaled.append(v.value)
        expected.append(e)
        denom = max(abs(e), abs(v.value))
        if denom <= max(base.err_estimate + v.err_estimate, 10 * _TINY):
            devs.append(0.0)  # both sides vanish within noise
        else:
            devs.append(abs(v.value - e) / denom)
    return HomogeneityReport(
        degree=a, order_drop=drop, base_value=base.value,
        scales=tuple(float(t) for t in scales),
        scaled_values=tuple(scaled), expected_values=tuple(expected),
        rel_deviations=tuple(devs),
        max_rel_deviation=max(devs) if devs else 0.0)
