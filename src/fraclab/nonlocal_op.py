"""Pointwise evaluation of the nonlocal operator.

``apply_L`` returns the integral

    int ( u(x) - (u(x+y) + u(x-y))/2 ) K(y) dy,

i.e. the value of -Lu(x); it is positive on the barrier functions.  The
integral is computed in polar form: along each direction, the radial
quadrature of ``_quad`` handles the kernel singularity, declared kinks and
the growth of the tail; in dimension two an adaptive Clenshaw-Curtis layer
integrates the directions over a half circle (the symmetrized integrand is
even), doubled.  The radial quadrature runs on batches of points and
directions: ``apply_L_many`` takes all directions of the initial angular
panels of every point at once, then, round by round, the 2 x 17 directions
of the panel each point still refining splits, so u is called once per
chunk of a stage rather than once per direction or point.  ``apply_L`` is
its one-point case.  Dimension one is the same call with the single
direction +1 at every point.
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


def _points(points, dim):
    """The points as a (P, dim) array; an empty list or a point of another
    dimension raises a ParameterError naming it."""
    pts = [np.atleast_1d(np.asarray(p, dtype=float)) for p in points]
    if not pts:
        raise ParameterError("points is empty: the operator needs a point")
    for i, p in enumerate(pts):
        if p.shape != (dim,):
            raise ParameterError(
                f"points[{i}] has shape {p.shape}; the kernel's dimension "
                f"is {dim}")
    return np.array(pts)


def _near_radius(u, x, q, index=0):
    sr = float(u.smooth_radius(x))
    if sr <= 0.0:
        raise DomainError(f"points[{index}] = {x.tolist()} lies on a kink of "
                          "u; the operator value diverges")
    scale = max(1.0, float(np.linalg.norm(np.atleast_1d(x))))
    if np.isinf(sr):
        base = 0.5 * scale
    else:
        base = q.near_fraction * sr
    return max(base, 1e-14 * scale)


def _kink_table(u, x, thetas):
    """The (D, k) radial kink table of the rows of ``thetas`` about the rows
    of ``x``, padded with +inf: one ``radial_breakpoints`` call per run of
    equal points."""
    cuts = np.flatnonzero(np.any(x[1:] != x[:-1], axis=1)) + 1
    bounds = np.concatenate([[0], cuts, [len(x)]])
    tables = [u.radial_breakpoints(x[i], thetas[i:j], 1e12)
              for i, j in zip(bounds[:-1], bounds[1:])]
    width = max(t.shape[1] for t in tables)
    return np.concatenate([np.pad(t, ((0, 0), (0, width - t.shape[1])),
                                  constant_values=np.inf) for t in tables])


def _radial(kernel, u, u_x, x, thetas, rho, q, rel_tol):
    """The radial integrals of u along every row of ``thetas`` about x: one
    point, or one per row, with u_x and rho then per row as well.  Each
    chunk of a stage of the quadrature makes one call of u, on the x + r
    theta rows followed by the x - r theta rows of one buffer; its rows are
    gathered with ``take``, several times cheaper than a fancy row index."""
    x = np.broadcast_to(x, thetas.shape)

    def pair_avg(r, k):
        n = len(r)
        base = x.take(k, axis=0)
        step = thetas.take(k, axis=0)
        step *= r[:, None]
        pair = np.empty((2 * n, x.shape[1]))
        np.add(base, step, out=pair[:n])
        np.subtract(base, step, out=pair[n:])
        vals = u(pair)
        return 0.5 * (vals[:n] + vals[n:])

    return radial_integrals(
        pair_avg, u_x, kernel.s, rho, _kink_table(u, x, thetas), u.growth,
        q.far_cutoff, rel_tol, q.n_jacobi, q.radial_panels,
        q.max_radial_panels)


def apply_L(kernel, u, x, q=None, half_circle=True):
    """Quadrature estimate of -Lu(x) for a homogeneous kernel.

    u must declare a growth exponent < 2s; otherwise the far integral
    diverges and a DivergenceError is raised.  This is the one-point case
    of ``apply_L_many``.
    """
    return _operator_values(kernel, u, [x], q, half_circle)[0]


def apply_L_many(kernel, u, points, q=None, half_circle=True):
    """``[apply_L(kernel, u, x, q, half_circle) for x in points]``, bit for
    bit, from one batched quadrature: every point keeps its own panels and
    refinement decisions, and each stage evaluates u on the nodes of all
    points at once.  Every point is checked before any quadrature runs: an
    empty list or a point of the wrong dimension raises a ParameterError,
    a point on a kink of u a DomainError, each naming the point's index.
    A ToleranceWarning is emitted for each point that misses its target.
    """
    return _operator_values(kernel, u, points, q, half_circle)


def _operator_values(kernel, u, points, q, half_circle):
    """The OperatorValues of ``apply_L_many``; a ToleranceWarning per point
    that misses its target is attributed to the caller of the public
    entry point."""
    if q is None:
        q = QuadratureSpec()
    s = kernel.s
    if u.growth >= 2.0 * s:
        raise DivergenceError(
            f"declared growth {u.growth} is not below 2s = {2 * s}; "
            "the far integral diverges")
    xs = _points(points, kernel.dim)
    if kernel.dim not in (1, 2):
        raise ParameterError("operator quadrature supports dim 1 and 2")
    rho = np.array([_near_radius(u, x, q, i) for i, x in enumerate(xs)])
    u_x = np.asarray(u(xs), dtype=float)

    if kernel.dim == 1:
        a_val = float(kernel.angular_density(np.array([[1.0]]))[0])
        rad = _radial(kernel, u, u_x, xs, np.ones((len(xs), 1)), rho, q,
                      q.target_rel_tol / 2.0)
        parts = [(2.0 * a_val * float(rad.near[i]),
                  2.0 * a_val * float(rad.far[i]),
                  2.0 * a_val * float(rad.err[i]),
                  2.0 * a_val * float(rad.mass[i]),
                  int(rad.n_evals[i]), int(rad.bisections[i]))
                 for i in range(len(xs))]
    else:
        parts = _angular_integrals(kernel, u, u_x, xs, rho, q, half_circle)

    out = []
    for near, far, err, mass, n_evals, refinements in parts:
        value = near + far
        scale = max(abs(value), 0.25 * mass, _TINY)
        tol_ok = err <= q.target_rel_tol * scale
        if not tol_ok:
            warnings.warn(
                f"operator quadrature reached err ~ {err:.2e} "
                f"(target {q.target_rel_tol:.1e} relative)", ToleranceWarning,
                stacklevel=3)
        out.append(OperatorValue(
            value=value, err_estimate=err, near_part=near, far_part=far,
            tol_ok=tol_ok, n_evals=n_evals, refinements=refinements))
    return out


class _AngularPanel(NamedTuple):
    a: float
    b: float
    near: float
    far: float
    rule_err: float
    rad_err: float
    mass: float


def _angular_panels(kernel, u, u_x, xs, rho, q, rad_tol, edges, owner):
    """Evaluate the 17-node Clenshaw-Curtis panels [a, b] of ``edges``, panel
    i about the point xs[owner[i]], with one batched radial quadrature over
    all their directions.  Returns the panels and each panel's radial nodes
    and bisections."""
    xs_cc, ws = clenshaw_curtis(16)
    _, w9 = clenshaw_curtis(8)
    a, b = np.array(edges).T
    half = (b - a) / 2.0
    mid = (a + b) / 2.0
    phis = mid[:, None] + half[:, None] * xs_cc
    theta = np.stack([np.cos(phis), np.sin(phis)], axis=-1).reshape(-1, 2)
    a_vals = np.asarray(kernel.angular_density(theta), dtype=float)
    row = np.repeat(owner, len(xs_cc))
    rad = _radial(kernel, u, u_x[row], xs[row], theta, rho[row], q, rad_tol)
    a_vals, nears, fars, errs, masses, evals, bis = (
        v.reshape(phis.shape)
        for v in (a_vals, *rad))
    tot = a_vals * (nears + fars)
    fine = half * np.sum(tot * ws, axis=1)
    coarse = half * np.sum(tot[:, ::2] * w9, axis=1)
    cols = zip(a, b, half * np.sum(a_vals * nears * ws, axis=1),
               half * np.sum(a_vals * fars * ws, axis=1), np.abs(fine - coarse),
               half * np.sum(a_vals * errs * ws, axis=1),
               half * np.sum(a_vals * masses * ws, axis=1))
    panels = [_AngularPanel(*map(float, c)) for c in cols]
    return panels, evals.sum(axis=1), bis.sum(axis=1)


def _angular_integrals(kernel, u, u_x, xs, rho, q, half_circle):
    """(near, far, err, mass, n_evals, refinements) of each point.  The
    points refine in lockstep: each round, every point still above its
    target splits its own worst panel, and the halves of all points go
    through one radial quadrature, so each point makes the decisions it
    makes alone."""
    span = np.pi if half_circle else 2.0 * np.pi
    factor = 2.0 if half_circle else 1.0
    # subdivide long segments so the initial node budget is met
    n_target = max(2, q.angular_nodes // 17)
    segments, owner = [], []
    for i, x in enumerate(xs):
        bps = sorted({float(b % np.pi) for b in u.angular_breakpoints(x)})
        edges = [0.0]
        for b in bps:
            for rep in (b, b + np.pi):
                if 1e-12 < rep < span - 1e-12:
                    edges.append(rep)
        edges.append(span)
        edges = sorted(set(edges))
        for a, b in zip(edges[:-1], edges[1:]):
            k = max(1, int(np.ceil((b - a) / (span / n_target))))
            sub = np.linspace(a, b, k + 1)
            segments.extend(zip(sub[:-1], sub[1:]))
            owner.extend([i] * k)

    rad_tol = q.target_rel_tol / 3.0
    flat, evals, bis = _angular_panels(kernel, u, u_x, xs, rho, q, rad_tol,
                                       segments, np.array(owner))
    panels = [[] for _ in xs]
    n_evals = [0] * len(xs)
    refinements = [0] * len(xs)
    for i, p, ev, bi in zip(owner, flat, evals, bis):
        panels[i].append(p)
        n_evals[i] += int(ev)
        refinements[i] += int(bi)

    active = range(len(xs))
    for _ in range(24):
        halves, owner = [], []
        for i in active:
            pan = panels[i]
            value = factor * sum(p.near + p.far for p in pan)
            mass = factor * sum(p.mass for p in pan)
            rule_err = factor * sum(p.rule_err for p in pan)
            target = q.target_rel_tol * max(abs(value), 0.25 * mass, _TINY)
            if rule_err <= 0.7 * target or len(pan) >= q.max_angular_panels:
                continue
            worst = max(range(len(pan)), key=lambda j: pan[j].rule_err)
            if pan[worst].rule_err <= 0.1 * target / max(len(pan), 1):
                continue
            old = pan.pop(worst)
            m = 0.5 * (old.a + old.b)
            halves.extend([(old.a, m), (m, old.b)])
            owner.extend([i, i])
        if not halves:
            break
        new, evals, bis = _angular_panels(kernel, u, u_x, xs, rho, q,
                                          rad_tol, halves, np.array(owner))
        for i, p, ev, bi in zip(owner, new, evals, bis):
            panels[i].append(p)
            n_evals[i] += int(ev)
            refinements[i] += int(bi)
        active = owner[::2]
        for i in active:
            refinements[i] += 1

    out = []
    for pan, ev, ref in zip(panels, n_evals, refinements):
        near = factor * sum(p.near for p in pan)
        far = factor * sum(p.far for p in pan)
        err = factor * sum(p.rule_err + p.rad_err for p in pan)
        mass = factor * sum(p.mass for p in pan)
        out.append((near, far, err, mass, ev, ref))
    return out


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
    base, *values = apply_L_many(kernel, u, [x] + [t * x for t in scales],
                                 q=q)
    drop = a - 2.0 * kernel.s
    scaled, expected, devs = [], [], []
    for t, v in zip(scales, values):
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
