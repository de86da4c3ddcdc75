"""Harmonic extension of the exterior datum and the bounds it satisfies.

The extended datum equals the classical harmonic extension of g's boundary
trace inside the domain and g itself outside.  ``extended_field`` builds it
on a planar Ball only: inside, the disk's Poisson integral evaluated by
graded-panel quadrature, or, for a datum that declares that it is exactly
C0 |y - z0|^alpha with z0 on the circle and 0 < alpha < 1, that datum's
closed-form extension.  Every other domain is refused.  The module also
checks, by finite differences and by the nonlocal operator, the blow-up
rates of D^2 and of L applied to the extension, at criterion 10's settings.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._quad import (MERGE_TOL, gl8_panels, graded_edges, merge_keep,
                    node_chunks, octaves, periodic_edges)
from .errors import DomainError, ParameterError, UnsupportedVariantError
from .fields import CompositeField
from .geometry import Ball
from .kernels import make_fractional_laplacian
from .nonlocal_op import QuadratureSpec, apply_L_many
from .wos import _declared_growth


def _plane_points(x):
    """x as a float array, and its rows as an (n, 2) array; a ParameterError
    naming the point unless x is a finite 2-vector or an (n, 2) array of
    finite rows."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if x.ndim > 2 or pts.shape[1] != 2:
        what = x.tolist() if x.ndim < 2 else f"an array of shape {x.shape}"
        raise ParameterError(
            f"an extension point must be a 2-vector, not {what}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        bad = pts[~finite][0].tolist()
        raise ParameterError(f"an extension point must be finite, not {bad}")
    return x, pts


class DiskExtension:
    """Poisson integral on a disk by GL8 panels graded toward the evaluation
    angle and toward declared singular angles of the datum.

    A point's edges are the shared ones, graded toward the singular angles
    down to 1e-12 and built once (one full-period panel when the datum
    declares no singular angle on the circle), and its own, graded toward
    its angle down to a quarter of its depth, less those within 1e-13 of a
    shared edge, so a singular angle stays an edge.  No node value is
    cached: the datum and the kernel are evaluated on every node.  The
    value is the Poisson integral over the computed kernel mass, which
    removes the leading quadrature error and keeps the mean-value property;
    both sums take one reduction, so the datum 1 comes out exactly 1 and
    leaves no rounding noise for the operator to refine.

    Called with one point it returns a float; with an (n, 2) array it
    returns the n values, a chunk of points at a time.  Any other shape,
    and a point that is not finite, raise a ParameterError naming it.
    """

    def __init__(self, dom, g):
        self.dom = dom
        self.g = g
        self.singular_angles = []
        for p in getattr(g, "singular_points", ()):
            p = np.asarray(p, dtype=float)
            v = p - dom.center
            if abs(np.linalg.norm(v) - dom.radius) < 1e-9 * dom.radius:
                self.singular_angles.append(float(np.arctan2(v[1], v[0])))
        if self.singular_angles:
            n = len(self.singular_angles)
            edges = periodic_edges([self.singular_angles], [[1e-12] * n],
                                   2.0 * np.pi)[0]
        else:
            edges = np.array([-np.pi, np.pi])
        # edges as offsets from the start of the shared period
        self._lo = edges[0]
        self._offsets = edges - edges[0]

    def __call__(self, x):
        x, pts = _plane_points(x)
        v = pts - self.dom.center
        r = np.sqrt(np.sum(v * v, axis=1))
        R = self.dom.radius
        if np.any(r >= R):
            raise DomainError("extension evaluation requires an interior point")
        delta = np.maximum(R - r, 1e-13 * R)
        phi_x = np.where(r > 0, np.arctan2(v[:, 1], v[:, 0]), 0.0)
        inner = 0.25 * delta / R
        # shared nodes count a quarter each, so a chunk may reach 4 NODE_CAP
        # nodes; counting them in full split the 9-point Hessian stencil in
        # two (+30% per call) and slowed 61000-point batches by 25% (measured)
        n_edges = 2 * octaves(inner, np.pi) + 5
        out = np.empty(len(r))
        for rows in node_chunks(8 * n_edges + 2 * len(self._offsets)):
            out[rows] = self._values(pts[rows], phi_x[rows], inner[rows])
        return float(out[0]) if x.ndim == 1 else out

    def _values(self, pts, phi_x, inner):
        """Extension values at a chunk of points."""
        period = 2.0 * np.pi
        offsets = self._offsets
        # the point's edges as offsets into the shared period
        u = np.clip((graded_edges(phi_x, inner, np.pi) - self._lo) % period,
                    0.0, period)
        u.sort(axis=1)
        # drop near-duplicates, and every edge within MERGE_TOL of a shared one
        keep = merge_keep(u, MERGE_TOL)
        j = np.searchsorted(offsets, u)
        gap = np.minimum(u - offsets[np.maximum(j - 1, 0)],
                         offsets[np.minimum(j, len(offsets) - 1)] - u)
        keep &= gap > MERGE_TOL
        # one sorted row per point; a dropped edge becomes the end edge, so
        # its panel has zero width
        edges = np.concatenate([
            np.broadcast_to(offsets, (len(u), len(offsets))),
            np.where(keep, u, offsets[-1])], axis=1)
        edges.sort(axis=1)
        phis, w = gl8_panels(edges + self._lo)
        zx = self.dom.center[0] + self.dom.radius * np.cos(phis)
        zy = self.dom.center[1] + self.dom.radius * np.sin(phis)
        h = self.g(np.column_stack([zx.ravel(), zy.ravel()])).reshape(w.shape)
        # w/|z - x|^2: the Poisson kernel's other factor, (R^2 - r^2) / 2 pi,
        # is constant per point and cancels in the normalized integral
        kern = w / ((zx - pts[:, :1]) ** 2 + (zy - pts[:, 1:]) ** 2)
        return _row_sums(kern * h) / _row_sums(kern)


def _row_sums(a):
    """Row sums of GL8 node values (n, 8k), per panel by einsum, then in
    order: unlike a pairwise or SIMD row sum, neither the zero-width panels
    that pad a row nor the chunk of points around it changes its sum."""
    panels = np.einsum("ij->i", a.reshape(-1, 8)).reshape(len(a), -1)
    return np.cumsum(panels, axis=1)[:, -1]


class PointPowerDiskExtension:
    """Closed-form harmonic extension into a disk of g = C0 |y - z0|^alpha,
    with z0 = c + R e^{i phi0} on the circle and 0 < alpha < 1 (NIST DLMF
    15.2):

        C0 R^alpha c0 (2 Re 2F1(-alpha/2, 1; 1 + alpha/2; zeta) - 1),
        zeta = (x - c) e^{-i phi0} / R,

    where c0 = Gamma(1 + alpha) / Gamma(1 + alpha/2)^2.  On the circle g is
    C0 R^alpha |2 sin(phi/2)|^alpha, phi measured from the anchor, whose
    Fourier coefficients are c0 (-alpha/2)_k / (1 + alpha/2)_k; the series
    of their extension sums to the hypergeometric function.

    The evaluation is elementwise, so a point's value does not depend on the
    batch around it.  scipy.special is imported on the first evaluation, not
    with the module: importing it takes about as long as importing the
    package.  One point or an (n, 2) array, as for ``DiskExtension``."""

    def __init__(self, dom, alpha, C0, anchor):
        self.dom = dom
        self.alpha = float(alpha)
        v = np.asarray(anchor, dtype=float) - dom.center
        self._e = v / np.hypot(v[0], v[1])
        c0 = math.gamma(1.0 + alpha) / math.gamma(1.0 + 0.5 * alpha) ** 2
        self._scale = C0 * dom.radius ** alpha * c0

    def __call__(self, x):
        from scipy.special import hyp2f1

        x, pts = _plane_points(x)
        vx = pts[:, 0] - self.dom.center[0]
        vy = pts[:, 1] - self.dom.center[1]
        R = self.dom.radius
        if np.any(np.hypot(vx, vy) >= R):
            raise DomainError("extension evaluation requires an interior point")
        ex, ey = self._e
        zeta = ((vx * ex + vy * ey) + 1j * (vy * ex - vx * ey)) / R
        a = self.alpha
        out = self._scale * (
            2.0 * hyp2f1(-0.5 * a, 1.0, 1.0 + 0.5 * a, zeta).real - 1.0)
        return float(out[0]) if x.ndim == 1 else out


def _disk_extension(dom, g):
    """The harmonic extension of g into the disk dom: the closed form when g
    declares that it is exactly C0 |y - z0|^alpha with z0 on the circle (to
    1e-12 R) and 0 < alpha < 1, the Poisson quadrature otherwise; dim 2 only."""
    if dom.dim != 2:
        raise UnsupportedVariantError("disk extension is dim-2 only")
    anchor = getattr(g, "power_anchor", None)
    if anchor is not None and len(anchor) == 2 and 0.0 < g.alpha < 1.0:
        v = np.asarray(anchor, dtype=float) - dom.center
        if abs(np.hypot(v[0], v[1]) - dom.radius) <= 1e-12 * dom.radius:
            return PointPowerDiskExtension(dom, g.alpha, g.C0, anchor)
    return DiskExtension(dom, g)


def extended_field(dom, g):
    """The composite field: harmonic extension inside, the datum outside, on
    a 2-D Ball, whose Poisson quadrature (or closed form, for the datum that
    declares it) the operator's error estimate covers.  Every other domain
    raises an UnsupportedVariantError naming extended_field, Ball and its
    type."""
    if not isinstance(dom, Ball):
        raise UnsupportedVariantError(
            f"extended_field supports Ball, not {type(dom).__name__}")
    return CompositeField(dom, _disk_extension(dom, g), g,
                          growth=_declared_growth(g))


def hessian_fd(f, x, h):
    """Central finite-difference Hessian of a scalar function on the plane.

    ``f`` maps an (n, 2) array of points to n values; the 9-point stencil is
    evaluated in one call."""
    x = np.asarray(x, dtype=float)
    e1 = np.array([1.0, 0.0]); e2 = np.array([0.0, 1.0])
    f0, fpx, fmx, fpy, fmy, fpp, fpm, fmp, fmm = f(np.array([
        x, x + h * e1, x - h * e1, x + h * e2, x - h * e2, x + h * (e1 + e2),
        x + h * (e1 - e2), x - h * (e1 - e2), x - h * (e1 + e2)]))
    fxx = (fpx - 2.0 * f0 + fmx) / h ** 2
    fyy = (fpy - 2.0 * f0 + fmy) / h ** 2
    fxy = (fpp - fpm - fmp + fmm) / (4.0 * h ** 2)
    return np.array([[fxx, fxy], [fxy, fyy]])


@dataclass(frozen=True)
class ExtensionBoundsReport:
    d: tuple
    hess_norm: tuple
    hess_normalized: tuple
    op_value: tuple
    op_err: tuple
    op_normalized: tuple
    hess_slope: float
    op_slope: float
    hess_sup: float
    op_sup: float
    passed: bool
    slope_tol: float


# criterion 10's probe: _N_POINTS log-spaced distances to the boundary in
# _BAND, the operator's kernel, and the largest |log-log slope| of a
# normalized quantity that still counts as no growth
_BAND = (1e-3, 1e-1)
_N_POINTS = 10
_KERNEL = make_fractional_laplacian(0.5, 2)
_SLOPE_TOL = 0.15


def check_extension_bounds(dom, g):
    """Probe |D^2 gbar| d^{2-alpha} and |L gbar| d^{2s-alpha}, alpha the
    datum's exponent and s the order of ``_KERNEL``, on ``_N_POINTS``
    log-spaced distances d in ``_BAND``, approaching the datum's first
    singular point (along e1 if it declares none).

    PASS means both normalized quantities show no growth trend: the log-log
    slope stays within ``_SLOPE_TOL`` of zero.  A domain other than a
    planar Ball is refused as ``extended_field`` refuses it.
    """
    comp = extended_field(dom, g)
    disk = comp.inside          # one inside field for the Hessian and L
    alpha = g.alpha
    s = _KERNEL.s
    if getattr(g, "singular_points", ()):
        p = np.asarray(g.singular_points[0], dtype=float)
        towards = (p - dom.center) / np.linalg.norm(p - dom.center)
    else:
        towards = np.array([1.0, 0.0])
    ds = np.geomspace(*_BAND, _N_POINTS)
    q = QuadratureSpec(target_rel_tol=2e-3, max_angular_panels=24,
                       max_radial_panels=160, n_jacobi=16)
    xs = [dom.center + (dom.radius - d) * towards for d in ds]
    ovs = apply_L_many(_KERNEL, comp, xs, q=q)
    hess_n, hessnorm, opv, operr, opn = [], [], [], [], []
    for d, x, ov in zip(ds, xs, ovs):
        H = hessian_fd(disk, x, d / 8.0)
        hn = float(np.linalg.norm(H, 2))
        hess_n.append(hn)
        hessnorm.append(hn * d ** (2.0 - alpha))
        opv.append(ov.value)
        operr.append(ov.err_estimate)
        opn.append(abs(ov.value) * d ** (2.0 * s - alpha))
    ld = np.log(ds)
    A = np.vstack([ld, np.ones_like(ld)]).T

    def _slope(vals):
        v = np.maximum(np.asarray(vals, dtype=float), 1e-300)
        return float(np.linalg.lstsq(A, np.log(v), rcond=None)[0][0])

    hs = _slope(hessnorm)
    osl = _slope(opn)
    passed = bool(abs(hs) <= _SLOPE_TOL and abs(osl) <= _SLOPE_TOL)
    return ExtensionBoundsReport(
        d=tuple(ds), hess_norm=tuple(hess_n), hess_normalized=tuple(hessnorm),
        op_value=tuple(opv), op_err=tuple(operr), op_normalized=tuple(opn),
        hess_slope=hs, op_slope=osl,
        hess_sup=float(np.max(hessnorm)), op_sup=float(np.max(opn)),
        passed=passed, slope_tol=_SLOPE_TOL)
