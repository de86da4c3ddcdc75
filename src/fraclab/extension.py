"""Harmonic extension of the exterior datum and the bounds it satisfies.

The extended datum equals the classical harmonic extension of g's boundary
trace inside the domain and g itself outside.  On the disk and the half
plane the extension is a Poisson integral evaluated by graded-panel
quadrature, and ``extended_field`` builds the composite field from it on
those two domains only.  On polygons ``harmonic_extension`` samples the
extension at one point by Brownian walk-on-spheres, run on the engine of
``wos.solve`` with exit radius 1.  The extension module also checks, by
finite differences and by the nonlocal operator, the blow-up rates of D^2
and of L applied to the extension.
"""

from dataclasses import dataclass

import numpy as np

from ._quad import (MERGE_TOL, bisect_edges, gl8_panels, graded_edges,
                    merge_keep, node_chunks, octaves, periodic_edges)
from .errors import (DivergenceError, DomainError, ParameterError,
                     UnsupportedVariantError)
from .fields import CompositeField
from .geometry import Ball, HalfPlane, Polygon
from .nonlocal_op import QuadratureSpec, apply_L_many
from .wos import BrownianExitSampler, WoSConfig, _walk_on_spheres


@dataclass(frozen=True)
class ExtensionConfig:
    """Walk-on-spheres settings of the polygon extension."""
    paths: int = 20000
    seed: int = 0
    max_steps: int = 10000
    snap_factor: float = 1e-6  # snap distance as a fraction of the diameter

    def __post_init__(self):
        if self.paths < 1:
            raise ParameterError("paths must be >= 1")
        if self.max_steps < 1:
            raise ParameterError("max_steps must be >= 1")
        if not 0.0 < self.snap_factor < 1.0:
            raise ParameterError("snap_factor must lie in (0,1)")


@dataclass(frozen=True)
class ExtensionValue:
    value: float
    stderr: float = 0.0
    method: str = "quadrature"
    bias_bound: float = 0.0   # walk-on-spheres only: snap and max_steps bias
    n_maxed: int = 0          # walk-on-spheres only: walkers out of steps

    def __float__(self):
        return self.value


class DiskExtension:
    """Poisson integral on a disk with panels graded toward the evaluation
    angle and toward declared singular angles of the datum.

    The grading toward the singular angles (down to 1e-12) is the same for
    every point, so it is built once: a shared periodic grid of GL8 panels
    with the datum cached on its nodes, or one full-period panel when the
    datum declares no singular angle on the circle.  A point's own edges,
    graded toward its angle down to a quarter of its depth, split some of
    the shared panels; the point sums the kernel over the shared nodes,
    drops the panels its edges split, and adds GL8 sums over the pieces,
    evaluating the datum only there.  The rule is GL8 on the union of both
    edge sets, normalized by the computed kernel mass.  Where two edges lie
    within 1e-13 the shared one is kept, so a singular angle always stays
    an edge.

    Called with one point it returns a float; with an (n, 2) array it
    returns the n values, a chunk of points at a time.
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
        phis, self._w = gl8_panels(edges)
        self._zx = dom.center[0] + dom.radius * np.cos(phis)
        self._zy = dom.center[1] + dom.radius * np.sin(phis)
        self._gv = g(np.column_stack([self._zx, self._zy]))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        v = pts - self.dom.center
        r = np.sqrt(np.sum(v * v, axis=1))
        R = self.dom.radius
        if np.any(r >= R):
            raise DomainError("extension evaluation requires an interior point")
        delta = np.maximum(R - r, 1e-13 * R)
        phi_x = np.where(r > 0, np.arctan2(v[:, 1], v[:, 0]), 0.0)
        inner = 0.25 * delta / R
        # chunks are sized by a bound on each point's own nodes plus its row
        # of the shared-node table, whose entries cost about a quarter of a
        # node (no datum, no cos/sin)
        n_edges = 2 * octaves(inner, np.pi) + 5
        out = np.empty(len(r))
        for rows in node_chunks(8 * n_edges + len(self._w) // 4):
            out[rows] = self._values(pts[rows], phi_x[rows], inner[rows])
        return float(out[0]) if x.ndim == 1 else out

    def _values(self, pts, phi_x, inner):
        """Extension values at a chunk of points."""
        n = len(pts)
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
        row = np.nonzero(keep)[0]
        u, j = u[keep], j[keep] - 1        # offsets[j] < u < offsets[j + 1]
        # sub-panels of each split shared panel: one ending at each point
        # edge, and one closing the panel
        first = np.ones(len(u), dtype=bool)
        first[1:] = (row[1:] != row[:-1]) | (j[1:] != j[:-1])
        last = np.ones_like(first)
        last[:-1] = first[1:]
        prev = np.empty_like(u)
        prev[1:] = u[:-1]
        sub_row = np.concatenate([row, row[last]])
        sub = np.column_stack([
            np.concatenate([np.where(first, offsets[j], prev), u[last]]),
            np.concatenate([u, offsets[j[last] + 1]])]) + self._lo
        phis, w = gl8_panels(sub)
        z = np.empty(phis.shape + (2,))
        z[..., 0] = self.dom.center[0] + self.dom.radius * np.cos(phis)
        z[..., 1] = self.dom.center[1] + self.dom.radius * np.sin(phis)
        h = self.g(z.reshape(-1, 2)).reshape(phis.shape)
        mass, integ = _kernel_panels(w, z[..., 0], z[..., 1],
                                     pts[sub_row, None], h)
        # the shared panels, without those the point's edges split: their
        # sums are zeroed, not subtracted, since a shared node near the point
        # carries a kernel weight up to 1/depth^2 that a difference would
        # cancel catastrophically
        shared_mass, shared_integ = _kernel_panels(
            self._w, self._zx, self._zy, pts[:, None], self._gv)
        shared_mass = shared_mass.reshape(n, -1)
        shared_integ = shared_integ.reshape(n, -1)
        shared_mass[row[last], j[last]] = 0.0
        shared_integ[row[last], j[last]] = 0.0
        mass = shared_mass.sum(axis=1) + np.bincount(sub_row, mass, n)
        integ = shared_integ.sum(axis=1) + np.bincount(sub_row, integ, n)
        # normalizing by the computed kernel mass removes the leading
        # quadrature error and enforces the mean-value property exactly
        return integ / mass


def _kernel_panels(w, zx, zy, x, h):
    """Per-panel sums of the GL8 weights ``w`` times 1/|z - x|^2, and times
    h/|z - x|^2 as well, for boundary nodes z = (zx, zy) whose last axis
    runs over panels of 8 nodes; x (shape (..., 1, 2)) broadcasts against
    the panel rows.  The Poisson kernel's other factor, (R^2 - r^2) / 2 pi,
    is constant per point and cancels in the normalized integral.  einsum
    sums every panel on its own, so a point's value does not depend on the
    chunk of points around it (a BLAS product with a ones vector rounds a
    row differently depending on its place in the matrix)."""
    d2 = zx - x[..., 0]
    d2 *= d2
    dy = zy - x[..., 1]
    dy *= dy
    d2 += dy
    kern = np.divide(w, d2, out=d2)
    return (np.einsum("ij->i", kern.reshape(-1, 8)),
            np.einsum("ij->i", (kern * h).reshape(-1, 8)))


class HalfPlaneExtension:
    """Poisson integral on a half plane; one point or an (n, 2) array, as
    for ``DiskExtension``."""

    def __init__(self, dom, g):
        if getattr(g, "payload_growth", 1.0) >= 1.0:
            raise DivergenceError(
                "half-plane Poisson integral needs datum growth < 1")
        self.dom = dom
        self.g = g
        self.tangent = np.array([-dom.normal[1], dom.normal[0]])

    def _trace(self, t):
        t = np.asarray(t, dtype=float)
        z = t.reshape(-1, 1) * self.tangent[None, :]
        return self.g(z).reshape(t.shape)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        h = pts @ self.dom.normal
        if np.any(h <= 0):
            raise DomainError("extension evaluation requires an interior point")
        t0 = pts @ self.tangent
        T = np.maximum(1e4 * np.maximum(h, 1.0), 1e4 * np.abs(t0))
        # graded edges, refined to quarter-octave spacing by two bisections
        n_edges = 4 * (2 * octaves(h / 4.0, T) + 5)
        out = np.empty(len(h))
        for rows in node_chunks(8 * n_edges):
            hr, tr = h[rows], t0[rows]
            edges = bisect_edges(bisect_edges(graded_edges(tr, hr / 4.0, T[rows])))
            ts, w = gl8_panels(edges)
            kern = w * ((hr[:, None] / np.pi)
                        / ((ts - tr[:, None]) ** 2 + hr[:, None] ** 2))
            integ = np.sum(kern * self._trace(ts), axis=1)
            norm = np.sum(kern, axis=1)
            # analytic kernel mass beyond the cutoffs, with the edge datum value
            for edge in (edges[:, -1], edges[:, 0]):
                mass = 0.5 - np.arctan(np.abs(edge - tr) / hr) / np.pi
                integ += mass * self._trace(edge)
                norm += mass
            out[rows] = integ / norm
        return float(out[0]) if x.ndim == 1 else out


def harmonic_extension(dom, g, x, cfg=None):
    """Value of the extended datum at an interior point: the solution of the
    Laplace problem with boundary trace g, evaluated at x.

    Disks and half planes use their Poisson-integral quadrature.  Polygons
    run the walk-on-spheres engine of ``wos.solve`` (streams of point 0)
    with exit radius 1 and sphere fraction 1: Brownian walk-on-spheres,
    with its stderr, ``bias_bound`` and ``n_maxed``."""
    if isinstance(dom, Ball):
        if dom.dim != 2:
            raise UnsupportedVariantError("disk extension is dim-2 only")
        return ExtensionValue(value=DiskExtension(dom, g)(x))
    if isinstance(dom, HalfPlane):
        return ExtensionValue(value=HalfPlaneExtension(dom, g)(x))
    if isinstance(dom, Polygon):
        cfg = cfg or ExtensionConfig()
        out = _walk_on_spheres(dom, g, x, BrownianExitSampler(), 1.0,
                               cfg.snap_factor * dom.diameter, cfg.max_steps,
                               cfg.paths, WoSConfig.batch_size, cfg.seed)
        return ExtensionValue(value=out.estimate, stderr=out.stderr,
                              method="wos", bias_bound=out.bias_bound,
                              n_maxed=out.n_maxed)
    raise UnsupportedVariantError(
        "harmonic extension supports Ball, HalfPlane and Polygon domains")


def extended_field(dom, g):
    """The composite field: harmonic extension inside, the datum outside, on
    Ball and HalfPlane, whose deterministic Poisson quadratures the operator's
    error estimate covers (polygons have Monte Carlo point values only)."""
    if isinstance(dom, Ball):
        inside = DiskExtension(dom, g)
    elif isinstance(dom, HalfPlane):
        inside = HalfPlaneExtension(dom, g)
    else:
        raise UnsupportedVariantError(
            f"extended_field supports Ball and HalfPlane, not "
            f"{type(dom).__name__}")
    return CompositeField(dom, inside, g, growth=g.payload_growth)


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


def check_extension_bounds(dom, g, band=(1e-3, 1e-1), alpha=None, n_points=10,
                           kernel=None, towards=None, q=None, slope_tol=0.1):
    """Probe |D^2 gbar| d^{2-alpha} and |L gbar| d^{2s-alpha} on log-spaced
    distances in the band, approaching the datum's singular anchor.

    PASS means both normalized quantities show no growth trend: the log-log
    slope stays within ``slope_tol`` of zero.
    """
    if not isinstance(dom, Ball):
        raise UnsupportedVariantError("extension bounds are probed on Ball")
    if alpha is None:
        alpha = g.alpha
    if kernel is None:
        from .kernels import make_fractional_laplacian
        kernel = make_fractional_laplacian(0.5, 2)
    s = kernel.s
    if towards is None:
        if getattr(g, "singular_points", ()):
            p = np.asarray(g.singular_points[0], dtype=float)
            towards = (p - dom.center) / np.linalg.norm(p - dom.center)
        else:
            towards = np.array([1.0, 0.0])
    towards = np.asarray(towards, dtype=float)
    ds = np.geomspace(band[0], band[1], n_points)
    comp = extended_field(dom, g)
    disk = comp.inside          # one shared grid for the Hessian and L
    if q is None:
        q = QuadratureSpec(target_rel_tol=2e-3, angular_nodes=34,
                           max_angular_panels=24, max_radial_panels=160,
                           n_jacobi=16)
    xs = [dom.center + (dom.radius - d) * towards for d in ds]
    ovs = apply_L_many(kernel, comp, xs, q=q)
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
    passed = bool(abs(hs) <= slope_tol and abs(osl) <= slope_tol)
    return ExtensionBoundsReport(
        d=tuple(ds), hess_norm=tuple(hess_n), hess_normalized=tuple(hessnorm),
        op_value=tuple(opv), op_err=tuple(operr), op_normalized=tuple(opn),
        hess_slope=hs, op_slope=osl,
        hess_sup=float(np.max(hessnorm)), op_sup=float(np.max(opn)),
        passed=passed, slope_tol=slope_tol)
