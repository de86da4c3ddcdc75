"""Geometric domains with distance, projection and regularized distance.

All variants expose vectorized ``contains``/``dist``/``dist_bound`` over
point batches of shape (n, dim) (single points of shape (dim,) also
accepted).  On every variant ``contains(x) == (dist(x) > 0) ==
(dist_bound(x) > 0)``.  ``dist_bound(x, exact_below)`` is a certified lower
bound on ``dist``, equal to it wherever it falls below ``exact_below``; the
walk-on-spheres loop makes one ``dist_bound`` call per step, steps on a ball
of that radius, reads the exit test off its sign and snaps on the exact
distance.  On Ball and non-convex Polygons the bound is ``dist`` itself; on
convex Polygons it is the distance to the nearest edge line, which is
``dist`` up to a few ulps of the coordinates (bit for bit on the unit
square), and on StarShaped a closed form in the radial gap, O(1) per point.
``project`` returns the nearest boundary point together with the inward unit
normal; on Ball, Polygon and StarShaped it takes a batch of interior points
(and returns two (n, dim) arrays), on HalfPlane and Cone one point.  Ball,
HalfPlane and StarShaped additionally provide a C^1 regularized distance psi
comparable to d with a Hessian controlled by omega(d)/d.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, UnsupportedVariantError


def _as_points(x, dim):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise ParameterError(f"point has dim {x.shape[0]}, domain has dim {dim}")
        return x[None, :], True
    if x.shape[-1] != dim:
        raise ParameterError(f"points have dim {x.shape[-1]}, domain has dim {dim}")
    return x, False


def _maybe_scalar(v, single):
    return (v[0] if single else v)


@dataclass(frozen=True)
class RegularizedDistance:
    """Value, gradient and Hessian of psi at one point, plus the modulus
    value omega(d) entering the Hessian bound |D^2 psi| <= omega(d)/d."""
    psi: float
    grad: np.ndarray
    hess: np.ndarray
    omega_bound: float


class Domain:
    """Base class; concrete variants implement the geometry services.

    Contract: ``contains(x) == (dist(x) > 0)`` for every point, so callers
    that need both make one ``dist`` call, and ``dist_bound`` keeps it.
    """

    dim = 2
    bounded = True

    def contains(self, x):
        raise NotImplementedError

    def dist(self, x):
        raise NotImplementedError

    def project(self, x):
        raise NotImplementedError

    def dist_bound(self, x, exact_below=0.0):
        """A lower bound on ``dist``: 0 outside, positive inside (so
        ``contains(x) == (dist_bound(x) > 0)``), and equal to ``dist``
        wherever it falls below ``exact_below``.  A ball of this radius about
        x lies in the domain, which is all a walk-on-spheres step needs.
        Here it is ``dist`` itself; convex polygons and star domains
        override it with closed forms."""
        return self.dist(x)

    def signed_dist(self, x):
        """Distance to the boundary, positive inside and negative outside."""
        raise UnsupportedVariantError(
            f"{type(self).__name__} has no signed distance")

    def regularized_distance(self, x):
        raise UnsupportedVariantError(
            f"{type(self).__name__} has no regularized distance")

    @property
    def diameter(self):
        raise UnsupportedVariantError(f"{type(self).__name__} is unbounded")


class Ball(Domain):
    def __init__(self, center, radius, dim=None):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if radius <= 0:
            raise ParameterError("ball radius must be positive")
        self.center = center
        self.radius = float(radius)
        self.dim = len(center) if dim is None else int(dim)
        if len(self.center) != self.dim:
            raise ParameterError("center length must match dim")

    @property
    def diameter(self):
        return 2.0 * self.radius

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        r = np.linalg.norm(pts - self.center, axis=-1)
        return _maybe_scalar(r < self.radius, single)

    def dist(self, x):
        pts, single = _as_points(x, self.dim)
        r = np.linalg.norm(pts - self.center, axis=-1)
        return _maybe_scalar(np.maximum(self.radius - r, 0.0), single)

    def project(self, x):
        pts, single = _as_points(x, self.dim)
        v = pts - self.center
        r = np.linalg.norm(v, axis=1)
        if np.any(r >= self.radius):
            raise DomainError("project requires an interior point")
        # the centre projects along the first axis
        direction = np.where((r > 0.0)[:, None],
                             v / np.where(r > 0.0, r, 1.0)[:, None],
                             np.eye(self.dim)[0])
        z0 = self.center + self.radius * direction
        return _maybe_scalar(z0, single), _maybe_scalar(-direction, single)

    def psi_value(self, x):
        """Regularized distance value, vectorized; negative outside Omega."""
        pts, single = _as_points(x, self.dim)
        v = pts - self.center
        psi = (self.radius ** 2 - np.sum(v * v, axis=-1)) / (2.0 * self.radius)
        return _maybe_scalar(psi, single)

    def regularized_distance(self, x):
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise DomainError("regularized distance requires an interior point")
        v = x - self.center
        R = self.radius
        psi = (R ** 2 - v @ v) / (2.0 * R)
        grad = -v / R
        hess = -np.eye(self.dim) / R
        d = self.dist(x)
        # |D^2 psi| = 1/R, so omega(r) = r/R works (gamma = 1, C = 1/R)
        return RegularizedDistance(psi=float(psi), grad=grad, hess=hess,
                                   omega_bound=float(d / R))


class HalfPlane(Domain):
    """Omega = {x : e . x > 0} with e the inward unit normal."""

    bounded = False

    def __init__(self, normal):
        normal = np.atleast_1d(np.asarray(normal, dtype=float))
        n = np.linalg.norm(normal)
        if n == 0:
            raise ParameterError("normal must be nonzero")
        self.normal = normal / n
        self.dim = len(self.normal)

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        return _maybe_scalar(pts @ self.normal > 0.0, single)

    def dist(self, x):
        pts, single = _as_points(x, self.dim)
        return _maybe_scalar(np.maximum(pts @ self.normal, 0.0), single)

    def project(self, x):
        x = np.asarray(x, dtype=float)
        h = x @ self.normal
        if h <= 0:
            raise DomainError("project requires an interior point")
        return x - h * self.normal, self.normal.copy()

    def psi_value(self, x):
        pts, single = _as_points(x, self.dim)
        return _maybe_scalar(pts @ self.normal, single)

    signed_dist = psi_value

    def regularized_distance(self, x):
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise DomainError("regularized distance requires an interior point")
        return RegularizedDistance(
            psi=float(x @ self.normal), grad=self.normal.copy(),
            hess=np.zeros((self.dim, self.dim)), omega_bound=0.0)


class Cone(Domain):
    """The open cone C_{-eta}: (e.x)/|x| > -eta (1 - (e.x)^2/|x|^2).

    Unbounded and Lipschitz; used as the comparison region for the cone
    barrier.  dim 2 only.
    """

    bounded = False
    dim = 2

    def __init__(self, axis, eta):
        axis = np.atleast_1d(np.asarray(axis, dtype=float))
        if len(axis) != 2:
            raise ParameterError("cone axis must be 2-dimensional")
        n = np.linalg.norm(axis)
        if n == 0:
            raise ParameterError("axis must be nonzero")
        if eta <= 0:
            raise ParameterError("eta must be positive")
        self.axis = axis / n
        self.eta = float(eta)
        # psi(x) = e.x + eta |x| (1 - (e.x)^2/|x|^2) vanishes on the boundary
        # rays at polar angle +-gamma* from the axis: solve c + eta(1-c^2) = 0.
        c = (1.0 - np.sqrt(1.0 + 4.0 * self.eta ** 2)) / (2.0 * self.eta)
        self.half_opening = float(np.arccos(c))  # in (pi/2, pi)
        base = np.arctan2(self.axis[1], self.axis[0])
        self.edge_dirs = np.stack([
            [np.cos(base + self.half_opening), np.sin(base + self.half_opening)],
            [np.cos(base - self.half_opening), np.sin(base - self.half_opening)],
        ])

    def side_function(self, x):
        """psi(x); positive inside the cone, zero on its boundary."""
        pts, single = _as_points(x, 2)
        r = np.linalg.norm(pts, axis=-1)
        p = pts @ self.axis
        with np.errstate(invalid="ignore", divide="ignore"):
            val = p + self.eta * (r - p ** 2 / r)
        val = np.where(r == 0.0, 0.0, val)
        return _maybe_scalar(val, single)

    def contains(self, x):
        pts, single = _as_points(x, 2)
        return _maybe_scalar(np.asarray(self.side_function(pts)) > 0.0, single)

    def dist(self, x):
        pts, single = _as_points(x, 2)
        inside = np.asarray(self.side_function(pts)) > 0.0
        d = np.full(pts.shape[0], 0.0)
        if np.any(inside):
            sub = pts[inside]
            dists = []
            for w in self.edge_dirs:
                t = np.clip(sub @ w, 0.0, None)
                foot = t[:, None] * w[None, :]
                dists.append(np.linalg.norm(sub - foot, axis=-1))
            d[inside] = np.minimum(dists[0], dists[1])
        return _maybe_scalar(d, single)

    def project(self, x):
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise DomainError("project requires an interior point")
        best = None
        for w in self.edge_dirs:
            t = max(float(x @ w), 0.0)
            foot = t * w
            dd = float(np.linalg.norm(x - foot))
            if best is None or dd < best[0]:
                best = (dd, foot)
        z0 = best[1]
        if np.linalg.norm(z0) == 0.0:
            normal = self.axis.copy()  # vertex: bisector = axis
        else:
            v = x - z0
            normal = v / np.linalg.norm(v)
        return z0, normal


class Polygon(Domain):
    """Simple polygon given by counterclockwise vertices, shape (m, 2)."""

    dim = 2

    def __init__(self, vertices):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ParameterError("polygon needs at least 3 planar vertices")
        area2 = float(np.sum(verts[:, 0] * np.roll(verts[:, 1], -1)
                             - np.roll(verts[:, 0], -1) * verts[:, 1]))
        if abs(area2) < 1e-14:
            raise ParameterError("polygon is degenerate")
        if area2 < 0:
            verts = verts[::-1].copy()
        self.vertices = verts
        self._a = verts
        self._b = np.roll(verts, -1, axis=0)
        self._edge = self._b - self._a
        self._len2 = np.sum(self._edge ** 2, axis=1)
        if np.any(self._len2 == 0.0):
            raise ParameterError("polygon has a zero-length edge")
        unit = self._edge / np.sqrt(self._len2)[:, None]
        self._inward = np.stack([-unit[:, 1], unit[:, 0]], axis=1)  # ccw
        # dist_bound's closed form: the polygon is convex when every turn
        # from one edge to the next is to the left; each edge line is
        # (nu_x, nu_y, a . nu); below _exact_floor, twice the edge pass's
        # on-edge band scaled to the coordinates, the bound defers to the
        # edge pass, so the two roundings agree on the sign
        nxt = np.roll(self._edge, -1, axis=0)
        turn = self._edge[:, 0] * nxt[:, 1] - self._edge[:, 1] * nxt[:, 0]
        self.convex = bool(np.all(turn > 0.0))
        offset = np.sum(self._a * self._inward, axis=1)
        self._lines = [(float(nx), float(ny), float(c))
                       for (nx, ny), c in zip(self._inward, offset)]
        self._exact_floor = 2e-14 * max(1.0, float(np.max(np.abs(verts))))

    @property
    def diameter(self):
        v = self.vertices
        return float(np.max(np.linalg.norm(v[:, None, :] - v[None, :, :], axis=-1)))

    def lipschitz_constant(self):
        """Graph constant of the boundary, max over corners of cot(theta/2)
        with theta the smaller of the interior/exterior corner angle."""
        prev = self.vertices - np.roll(self.vertices, 1, axis=0)
        nxt = np.roll(self.vertices, -1, axis=0) - self.vertices
        worst = 0.0
        for u, v in zip(prev, nxt):
            cosang = -(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
            ang = np.arccos(np.clip(cosang, -1.0, 1.0))
            ang = min(ang, 2.0 * np.pi - ang)
            worst = max(worst, 1.0 / np.tan(ang / 2.0))
        return float(worst)

    def _edge_pass(self, pts):
        """One pass over the edges for a batch of points: the clamped
        parameter ``t`` of the nearest point on every edge and the squared
        distance ``d2`` to it, both (n, m), the distance ``d`` to the nearest
        edge and whether each point lies strictly inside (odd crossing number
        and off the edges)."""
        px = pts[:, 0:1]; py = pts[:, 1:2]
        ax, ay = self._a[:, 0], self._a[:, 1]
        ex, ey = self._edge[:, 0], self._edge[:, 1]
        wx = px - ax; wy = py - ay
        t = np.clip((wx * ex + wy * ey) / self._len2, 0.0, 1.0)
        dx = px - (ax + t * ex)
        dy = py - (ay + t * ey)
        d2 = dx * dx + dy * dy
        cond = (ay > py) != (self._b[:, 1] > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xin = ax + wy * ex / ey
        odd = np.count_nonzero(cond & (px < xin), axis=1) % 2 == 1
        d = np.sqrt(np.min(d2, axis=1))
        return t, d2, d, odd & ~(d < 1e-14)

    def signed_dist(self, x):
        pts, single = _as_points(x, 2)
        _, _, d, inside = self._edge_pass(pts)
        return _maybe_scalar(np.where(inside, d, -d), single)

    def contains(self, x):
        pts, single = _as_points(x, 2)
        return _maybe_scalar(self._edge_pass(pts)[3], single)

    def dist(self, x):
        pts, single = _as_points(x, 2)
        _, _, d, inside = self._edge_pass(pts)
        return _maybe_scalar(np.where(inside, d, 0.0), single)

    def dist_bound(self, x, exact_below=0.0):
        """On a convex polygon, min_i (x - a_i) . nu_i, the distance to the
        nearest edge line, which inside is the distance itself; rows where
        it falls below ``exact_below`` (or near or below 0, or is NaN) get
        the edge pass's exact ``dist``.  On the unit square it is ``dist``
        bit for bit.  Elsewhere the two formulas round differently, a few
        ulps of the coordinates apart.  Non-convex polygons return
        ``dist``: their edge lines cut through the interior."""
        if not self.convex:
            return self.dist(x)
        pts, single = _as_points(x, 2)
        px, py = pts[:, 0], pts[:, 1]
        bound = np.full(len(pts), np.inf)
        # one edge at a time: a min over a short trailing axis is slow
        for nx, ny, off in self._lines:
            bound = np.minimum(bound, px * nx + py * ny - off)
        exact = ~(bound >= max(exact_below, self._exact_floor))
        if np.any(exact):
            _, _, d, inside = self._edge_pass(pts[exact])
            bound[exact] = np.where(inside, d, 0.0)
        return _maybe_scalar(bound, single)

    def project(self, x):
        pts, single = _as_points(x, 2)
        t, d2, d, inside = self._edge_pass(pts)
        if not np.all(inside):
            raise DomainError("project requires an interior point")
        dd = np.sqrt(d2)
        k = np.argmin(dd, axis=1)
        tk = t[np.arange(len(pts)), k]
        z0 = self._a[k] + tk[:, None] * self._edge[k]
        ties = np.count_nonzero(dd <= (d * (1.0 + 1e-9) + 1e-15)[:, None], axis=1)
        # corner: the direction to x is the bisector ray
        at_vertex = (tk == 0.0) | (tk == 1.0) | (ties > 1)
        normal = np.where(at_vertex[:, None], (pts - z0) / d[:, None],
                          self._inward[k])
        return _maybe_scalar(z0, single), _maybe_scalar(normal, single)


class StarShaped(Domain):
    """Star-shaped (about the origin) C^{1,gamma} domain r(theta) given by a
    finite cosine/sine series; r(theta) >= r_min > 0 is required."""

    dim = 2

    def __init__(self, coeff_cos, coeff_sin=(), gamma=1.0):
        self.coeff_cos = np.atleast_1d(np.asarray(coeff_cos, dtype=float))
        self.coeff_sin = np.atleast_1d(np.asarray(coeff_sin, dtype=float)) \
            if len(coeff_sin) else np.zeros(0)
        if gamma <= 0 or gamma > 1:
            raise ParameterError("gamma must lie in (0, 1]")
        self.gamma = float(gamma)
        self._r0 = float(self.coeff_cos[0]) if len(self.coeff_cos) else 0.0
        self._cos_terms = [(float(k), c) for k, c in enumerate(self.coeff_cos)
                           if k > 0 and c != 0.0]
        self._sin_terms = [(float(k), c)
                           for k, c in enumerate(self.coeff_sin, start=1)
                           if c != 0.0]
        th = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        rr = self.radial(th)
        self.r_min = float(np.min(rr))
        self.r_max = float(np.max(rr))
        if self.r_min <= 0:
            raise ParameterError("radial profile must stay positive")
        self._omega_const = None
        # dist_bound: M = sum_k k (|a_k| + |b_k|) >= max |r'|, the sampled
        # minimum lowered by M times half a sample spacing (a certified
        # lower bound on min r), and the rounding error of the radial gap
        # r(theta_x) - |x|, a few ulps of the series' terms
        k_cos = np.arange(len(self.coeff_cos))
        k_sin = np.arange(1, len(self.coeff_sin) + 1)
        self._slope_bound = float(np.sum(k_cos * np.abs(self.coeff_cos))
                                  + np.sum(k_sin * np.abs(self.coeff_sin)))
        self._r_lo = self.r_min - self._slope_bound * np.pi / len(th)
        self._gap_slack = 4.0 * np.finfo(float).eps * (
            np.sum(np.abs(self.coeff_cos)) + np.sum(np.abs(self.coeff_sin))
            + 2.0 * np.pi * self._slope_bound)
        # boundary grids seeding dist (256 nodes) and project (512 nodes)
        self._dist_grid = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        self._dist_nodes = self.boundary_point(self._dist_grid)
        self._proj_grid = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        self._proj_nodes = self.boundary_point(self._proj_grid)

    @property
    def diameter(self):
        return 2.0 * self.r_max

    def radial(self, theta):
        """r(theta), from the constant term and the nonzero harmonics only
        (a zero term adds +-0, so the sum is that of the full series)."""
        theta = np.asarray(theta, dtype=float)
        out = np.full(theta.shape, self._r0)
        for k, c in self._cos_terms:
            out += c * np.cos(k * theta)
        for k, c in self._sin_terms:
            out += c * np.sin(k * theta)
        return out

    def _radial_derivs(self, theta):
        """r, r', r'' and cos, sin at theta from one cos/sin evaluation per
        harmonic; r is computed as in ``radial``."""
        n_harm = max(len(self.coeff_cos), len(self.coeff_sin) + 1, 2)
        cos_k = [np.cos(float(k) * theta) for k in range(n_harm)]
        sin_k = [np.sin(float(k) * theta) for k in range(n_harm)]
        r, r1, r2 = (np.zeros_like(theta) for _ in range(3))
        for k, c in enumerate(self.coeff_cos):
            kk = float(k)
            r += c * cos_k[k]
            r1 += -c * kk * sin_k[k]
            r2 += -c * kk ** 2 * cos_k[k]
        for k, c in enumerate(self.coeff_sin, start=1):
            kk = float(k)
            r += c * sin_k[k]
            r1 += c * kk * cos_k[k]
            r2 += -c * kk ** 2 * sin_k[k]
        return r, r1, r2, cos_k[1], sin_k[1]

    def _radial_gap(self, pts):
        """|x| and the radial gap r(theta_x) - |x|, positive exactly inside."""
        rho = np.linalg.norm(pts, axis=-1)
        return rho, self.radial(np.arctan2(pts[:, 1], pts[:, 0])) - rho

    def contains(self, x):
        pts, single = _as_points(x, 2)
        return _maybe_scalar(self._radial_gap(pts)[1] > 0.0, single)

    # fixed splits of the cone bound below, and its relative rounding margin
    _BOUND_LAMBDAS = np.array([1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2])[:, None]
    _BOUND_MARGIN = 1e-12

    def dist_bound(self, x, exact_below=0.0):
        """Certified lower bound on ``dist`` in O(1) per point.

        With rho = |x|, G = r(theta_x) - rho and F(y) = |y| - r(arg y):
        F(x) = -G, F vanishes at the nearest boundary point z, and |grad F|
        <= sqrt(1 + M^2/|y|^2) with M >= max |r'|.  If |x - z| < lam rho, the
        segment to z keeps |y| > (1 - lam) rho, so G <= |x - z| sqrt(1 +
        M^2/((1 - lam) rho)^2).  Hence dist >= min(lam rho, G / sqrt(...))
        for every lam in (0, 1), and dist >= r_lo - rho since the disc of
        radius r_lo <= min r lies in the domain.  The best of these, lowered
        by a relative margin and the gap's rounding error, is the bound;
        points where it falls below ``exact_below`` (or to 0 inside) get the
        exact distance.
        """
        pts, single = _as_points(x, 2)
        rho, gap = self._radial_gap(pts)
        q = (1.0 - self._BOUND_LAMBDAS) * rho
        with np.errstate(invalid="ignore"):   # 0/0 at the origin of a disc
            cone = np.fmin(self._BOUND_LAMBDAS * rho,
                           gap * q / np.hypot(q, self._slope_bound))
        bound = np.maximum(self._r_lo - rho, np.max(cone, axis=0))
        bound = bound * (1.0 - self._BOUND_MARGIN) - self._gap_slack
        inside = gap > 0.0
        bound = np.where(inside, bound, 0.0)
        exact = inside & ((bound < exact_below) | (bound <= 0.0))
        if np.any(exact):
            bound[exact] = self._dist_batch(pts[exact])
        return _maybe_scalar(bound, single)

    def boundary_point(self, theta):
        r = self.radial(theta)
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)

    def _nearest_param(self, pts):
        """Boundary parameter minimizing |x - B(theta)| for each row of pts:
        damped Newton from the nearest node of the 512-point grid, each
        point stopping at its first step below tolerance, with golden-section
        search on the grid cell where Newton stalls (a non-positive
        curvature, or a step above 1e-10 diameter that does not descend)."""
        tol = 1e-12 * self.diameter
        flat = 1e-10 * self.diameter
        cell = 2.0 * np.pi / 256      # damping: stay within the grid cells
        out = np.empty(len(pts))
        for lo in range(0, len(pts), 128):
            px, py = pts[lo:lo + 128, 0], pts[lo:lo + 128, 1]
            nodes = self._proj_nodes
            k = np.argmin((nodes[:, 0] - px[:, None]) ** 2
                          + (nodes[:, 1] - py[:, None]) ** 2, axis=1)
            th = self._proj_grid[k]
            f = self._param_dist2(th, px, py)
            stalled = np.zeros(len(th), dtype=bool)
            act = np.arange(len(th))
            for _ in range(60):
                t, x0, x1 = th[act], px[act], py[act]
                r, rp, rpp, c, s = self._radial_derivs(t)
                bx, by = r * c, r * s
                dbx = rp * c - r * s
                dby = rp * s + r * c
                d2bx = rpp * c - 2 * rp * s - r * c
                d2by = rpp * s + 2 * rp * c - r * s
                g = 2.0 * ((bx - x0) * dbx + (by - x1) * dby)
                h = 2.0 * (dbx * dbx + dby * dby
                           + (bx - x0) * d2bx + (by - x1) * d2by)
                with np.errstate(divide="ignore", invalid="ignore"):
                    step = np.clip(g / h, -cell, cell)
                t_new = t - step
                f_new = self._param_dist2(t_new, x0, x1)
                ok = (h > 0) & (f_new <= f[act])
                th[act[ok]] = t_new[ok]
                f[act[ok]] = f_new[ok]
                # a step below flat changes the squared distance by less
                # than its rounding, so failing the descent test there is
                # convergence; only real stalls fall back
                small = np.abs(step) * self.r_max < tol
                converged = (h > 0) & (np.abs(step) * self.r_max < flat)
                stalled[act[~ok & ~converged]] = True
                act = act[ok & ~small]
                if len(act) == 0:
                    break
            stalled[act] = True
            idx = np.nonzero(stalled)[0]
            if len(idx):
                th[idx] = self._golden_param(self._proj_grid[k[idx]],
                                             px[idx], py[idx], tol)
            out[lo:lo + 128] = th
        return out

    def _param_dist2(self, th, px, py):
        """|(px, py) - B(th)|^2."""
        r = self.radial(th)
        ex, ey = r * np.cos(th) - px, r * np.sin(th) - py
        return ex * ex + ey * ey

    def _golden_param(self, node, px, py, tol):
        """Golden-section minimum of the squared distance on the 512-grid
        cells around ``node``, vectorized over points."""
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        a = node - 2.0 * np.pi / 512
        b = node + 2.0 * np.pi / 512
        c1 = b - invphi * (b - a)
        c2 = a + invphi * (b - a)
        f1, f2 = self._param_dist2(c1, px, py), self._param_dist2(c2, px, py)
        run = (b - a) * self.r_max > tol
        while np.any(run):
            left = run & (f1 < f2)
            right = run & ~(f1 < f2)
            b = np.where(left, c2, b)
            a = np.where(right, c1, a)
            c2, f2, c1, f1 = (np.where(left, c1, c2), np.where(left, f1, f2),
                              np.where(right, c2, c1), np.where(right, f2, f1))
            c1 = np.where(left, b - invphi * (b - a), c1)
            c2 = np.where(right, a + invphi * (b - a), c2)
            f_new = self._param_dist2(np.where(left, c1, c2), px, py)
            f1 = np.where(left, f_new, f1)
            f2 = np.where(right, f_new, f2)
            run = (b - a) * self.r_max > tol
        return 0.5 * (a + b)

    def _dist_batch(self, pts):
        """Distance to the boundary for a batch: nearest node of the
        256-point grid, then at most 30 damped vectorized Newton steps on the
        squared distance along the boundary parameter.  Every row is on its
        own (each point stops at its first step below tolerance), so a
        point's distance does not depend on the rest of the batch."""
        B = self._dist_nodes
        cell = 2.0 * np.pi / len(B)
        tol = 1e-13 * self.diameter
        out = np.empty(pts.shape[0])
        for lo in range(0, pts.shape[0], 8192):
            p = pts[lo:lo + 8192]
            th = self._dist_grid[np.argmin(
                (B[:, 0] - p[:, 0:1]) ** 2 + (B[:, 1] - p[:, 1:2]) ** 2, axis=1)]
            act = np.arange(len(p))
            for _ in range(30):
                r, rp, rpp, c, s = self._radial_derivs(th[act])
                bx, by = r * c, r * s
                dbx = rp * c - r * s
                dby = rp * s + r * c
                d2bx = rpp * c - 2 * rp * s - r * c
                d2by = rpp * s + 2 * rp * c - r * s
                ex, ey = bx - p[act, 0], by - p[act, 1]
                g1 = 2.0 * (ex * dbx + ey * dby)
                h1 = 2.0 * (dbx ** 2 + dby ** 2 + ex * d2bx + ey * d2by)
                step = np.where(h1 > 0.0, g1 / np.maximum(h1, 1e-300), 0.0)
                step = np.clip(step, -cell, cell)
                th[act] -= step
                act = act[np.abs(step) * self.r_max >= tol]
                if len(act) == 0:
                    break
            bp = self.boundary_point(th)
            out[lo:lo + 8192] = np.linalg.norm(bp - p, axis=1)
        return out

    def signed_dist(self, x):
        pts, single = _as_points(x, 2)
        d = self._dist_batch(pts)
        inside = np.asarray(self.contains(pts))
        return _maybe_scalar(np.where(inside, d, -d), single)

    def dist(self, x):
        pts, single = _as_points(x, 2)
        out = np.zeros(pts.shape[0])
        inside = np.asarray(self.contains(pts))
        if np.any(inside):
            out[inside] = self._dist_batch(pts[inside])
        return _maybe_scalar(out, single)

    def project(self, x):
        pts, single = _as_points(x, 2)
        if not np.all(self.contains(pts)):
            raise DomainError("project requires an interior point")
        th = self._nearest_param(pts)
        z0 = self.boundary_point(th)
        v = pts - z0
        n = np.linalg.norm(v, axis=1)
        normal = v / np.where(n > 0.0, n, 1.0)[:, None]
        on_curve = n == 0.0
        if np.any(on_curve):
            # x is its own nearest boundary point: the curve's inward normal
            r, rp, _, c, s = self._radial_derivs(th[on_curve])
            tangent = np.stack([rp * c - r * s, rp * s + r * c], axis=1)
            tangent /= np.linalg.norm(tangent, axis=1)[:, None]
            inward = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
            outward = np.sum(inward * z0[on_curve], axis=1) > 0
            inward[outward] *= -1.0
            normal[on_curve] = inward
        return _maybe_scalar(z0, single), _maybe_scalar(normal, single)

    # --- regularized distance: flattened radial gap ----------------------
    # psi = h(rho) with rho(x) = r(theta_x) - |x|; h is the identity near the
    # boundary and flattens to a constant before the origin, so psi is C^2 on
    # all of Omega while psi ~ d near the boundary.

    def _gap_cut(self):
        return self.r_min / 3.0, 2.0 * self.r_min / 3.0

    def _h(self, rho):
        r1, r2 = self._gap_cut()
        if rho <= r1:
            return rho, 1.0, 0.0
        if rho >= r2:
            # value of the blend at r2 (constant beyond)
            hv, _, _ = self._h(r2 - 1e-15)
            return hv, 0.0, 0.0
        # quintic smoothstep of the derivative from 1 down to 0 on [r1, r2]
        t = (rho - r1) / (r2 - r1)
        blend = 1.0 - (10 * t ** 3 - 15 * t ** 4 + 6 * t ** 5)
        dblend = -(30 * t ** 2 - 60 * t ** 3 + 30 * t ** 4) / (r2 - r1)
        # h(rho) = r1 + int_{r1}^{rho} blend
        sint = (rho - r1) - (10 / 4 * t ** 4 - 15 / 5 * t ** 5 + 6 / 6 * t ** 6) * (r2 - r1)
        return r1 + sint, blend, dblend

    def _gap(self, x):
        th = np.arctan2(x[1], x[0])
        rr = np.linalg.norm(x)
        r, rp, rpp, _, _ = self._radial_derivs(th)
        if rr == 0.0:
            return r, None, None
        # gradients of theta and |x|
        gth = np.array([-x[1], x[0]]) / rr ** 2
        grr = x / rr
        grad = rp * gth - grr
        hth = (np.array([[2 * x[0] * x[1], x[1] ** 2 - x[0] ** 2],
                         [x[1] ** 2 - x[0] ** 2, -2 * x[0] * x[1]]]) / rr ** 4)
        hrr = (np.eye(2) - np.outer(x, x) / rr ** 2) / rr
        hess = (rpp * np.outer(gth, gth) + rp * hth - hrr)
        return r - rr, grad, hess

    def omega_constant(self):
        """Empirical constant C with |D^2 psi| <= C d^{gamma-1}, from a
        sampled sup with modest headroom (cached per domain)."""
        if self._omega_const is None:
            rng = np.random.Generator(np.random.Philox(key=7))
            worst = 1e-12
            n = 0
            while n < 2000:
                p = (rng.random(2) * 2.0 - 1.0) * self.r_max
                if not self.contains(p):
                    continue
                n += 1
                d = float(self.dist(p))
                if d <= 0:
                    continue
                rd = self._reg(p)
                worst = max(worst, float(np.linalg.norm(rd[2], 2)) * d ** (1.0 - self.gamma))
            self._omega_const = 1.15 * worst
        return self._omega_const

    def _reg(self, x):
        rho, grho, hrho = self._gap(x)
        hv, hp, hpp = self._h(rho)
        grad = hp * grho
        hess = hpp * np.outer(grho, grho) + hp * hrho
        return hv, grad, hess

    def psi_value(self, x):
        pts, single = _as_points(x, 2)
        th = np.arctan2(pts[:, 1], pts[:, 0])
        rho = self.radial(th) - np.linalg.norm(pts, axis=-1)
        r1, r2 = self._gap_cut()
        flat, _, _ = self._h(r2)
        t = np.clip((rho - r1) / (r2 - r1), 0.0, 1.0)
        sint = (rho - r1) - (2.5 * t ** 4 - 3.0 * t ** 5 + t ** 6) * (r2 - r1)
        out = np.where(rho <= r1, rho, np.where(rho >= r2, flat, r1 + sint))
        return _maybe_scalar(out, single)

    def regularized_distance(self, x):
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise DomainError("regularized distance requires an interior point")
        if np.linalg.norm(x) == 0.0:
            r1, r2 = self._gap_cut()
            hv, _, _ = self._h(r2)
            return RegularizedDistance(psi=hv, grad=np.zeros(2),
                                       hess=np.zeros((2, 2)),
                                       omega_bound=0.0)
        hv, grad, hess = self._reg(x)
        d = float(self.dist(x))
        omega = self.omega_constant() * d ** self.gamma
        return RegularizedDistance(psi=float(hv), grad=grad, hess=hess,
                                   omega_bound=float(omega))


# ---------------------------------------------------------------------------
# spec-shaped module-level operations

def regularized_distance(dom, x):
    return dom.regularized_distance(x)


def domain_from_config(cfg):
    """Domain config records, one key per variant:
    {"ball": {"center": [..], "radius": r}}, {"halfplane": {"normal": [..]}},
    {"cone": {"axis": [..], "eta": e}}, {"polygon": {"vertices": [[..]..]}},
    {"star": {"coeff_cos": [..], "coeff_sin": [..], "gamma": g}}.
    """
    if len(cfg) != 1:
        raise ParameterError("domain config must have exactly one variant key")
    (kind, body), = cfg.items()
    if kind == "ball":
        return Ball(body["center"], body["radius"])
    if kind == "halfplane":
        return HalfPlane(body["normal"])
    if kind == "cone":
        return Cone(body["axis"], body["eta"])
    if kind == "polygon":
        return Polygon(body["vertices"])
    if kind == "star":
        return StarShaped(body["coeff_cos"], body.get("coeff_sin", ()),
                          gamma=body.get("gamma", 1.0))
    raise ParameterError(f"unknown domain variant {kind!r}")


def domain_to_config(dom):
    if isinstance(dom, Ball):
        return {"ball": {"center": dom.center.tolist(), "radius": dom.radius}}
    if isinstance(dom, HalfPlane):
        return {"halfplane": {"normal": dom.normal.tolist()}}
    if isinstance(dom, Cone):
        return {"cone": {"axis": dom.axis.tolist(), "eta": dom.eta}}
    if isinstance(dom, Polygon):
        return {"polygon": {"vertices": dom.vertices.tolist()}}
    if isinstance(dom, StarShaped):
        return {"star": {"coeff_cos": dom.coeff_cos.tolist(),
                         "coeff_sin": dom.coeff_sin.tolist(),
                         "gamma": dom.gamma}}
    raise ParameterError(f"cannot serialize {type(dom).__name__}")


def unit_square():
    return Polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
