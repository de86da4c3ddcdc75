"""Geometric domains with distance, projection and a side function.

All variants expose vectorized ``contains``/``dist``/``dist_bound`` over
point batches of shape (n, dim) (single points of shape (dim,) also
accepted).  On every variant ``contains(x) == (dist(x) > 0) ==
(dist_bound(x) > 0)``.  ``dist_bound(x, exact_below)`` is a certified lower
bound on ``dist`` that decides ``dist < exact_below`` exactly: a row whose
bound falls below ``exact_below`` gets ``dist`` itself unless the variant's
cheap upper bound on ``dist`` falls below it too.  The walk-on-spheres loop
makes one ``dist_bound`` call per step, steps on a ball of that radius,
reads the exit test off its sign and decides the snap exactly.  On Ball and
non-convex Polygons the bound is ``dist`` itself; on convex Polygons it is
the distance to the nearest edge line, which is ``dist`` up to a few ulps of
the coordinates (bit for bit on the unit square; the decision is that of
``dist`` up to those ulps), and on StarShaped a closed form in the radial
gap, O(1) per point, with the radial gap as its upper bound.
``project`` returns the nearest boundary point together with the inward unit
normal; every variant takes a batch of interior points (and returns two (n,
dim) arrays).  On StarShaped and on Cone one nearest-point primitive serves
``dist``, ``signed_dist`` and ``project`` (and StarShaped's exact rows of
``dist_bound``), so each reports the same |x - z| for the same nearest
boundary point z; on Cone it is the foot max(x . w, 0) w on each edge ray w.
Row dots are elementwise (``np.vecdot`` for the cone's x . w, ``row_dot``
for x . e on HalfPlane and Cone, ``row_norm2`` for |x|^2 on Ball and in the
cone's psi), so a point's value does not depend on the batch around it.

``signed_dist`` (every variant) is positive inside and negative outside.
``boundary_crossings(x, thetas, r_max)`` gives where the rays x +- r theta
cross the boundary as a (D, k) table padded with +inf: closed forms on Ball,
HalfPlane and Cone (the edge lines met on their half lines, and the ray
through the vertex), a sign-change scan of the radial gap on StarShaped and
of ``signed_dist`` on Polygon.  ``angular_breakpoints(x)`` gives the angles
(read mod pi) of the directions where that crossing pattern changes:
HalfPlane's tangent (2-D), Cone's two edges and the ray from x through its
vertex, none elsewhere.  Ball, HalfPlane, Cone and StarShaped have a side
function ``psi_value``, positive exactly inside: on Ball, HalfPlane and
StarShaped a smooth psi comparable to d (a closed form on Ball and
HalfPlane, the flattened radial gap on StarShaped), whose barriers psi^alpha
the certified operator checks; on Cone the homogeneous cone function of the
barrier Phi_beta.
"""

import numpy as np

from .errors import (DomainError, ParameterError, UnsupportedVariantError,
                     build_record)


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


def _finite(name, value):
    """A domain parameter as a float array; a ParameterError naming it
    unless it is numeric and every entry is finite."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return arr


def row_dot(pts, v):
    """The dot product of each row of ``pts`` (shape (..., d)) with ``v``:
    elementwise products summed in coordinate order.  A row's value does
    not depend on the batch around it, where a BLAS matrix-vector product
    (``pts @ v``) rounds a row by its place in the batch; on 8192 rows of 2
    it costs twice that product, and a fifth of ``np.vecdot``."""
    out = pts[..., 0] * v[0]
    for k in range(1, len(v)):
        out += pts[..., k] * v[k]
    return out


def row_norm2(pts):
    """The squared Euclidean norm of each row of ``pts`` (shape (n, d)):
    squared columns summed in coordinate order, bit for bit ``np.sum(pts *
    pts, axis=-1)``, and its ``np.sqrt`` bit for bit ``np.linalg.norm(pts,
    axis=-1)``; on 8192 rows of 2 each costs about a seventh of the numpy
    form, a reduction over a short trailing axis.  A row whose square
    overflows reads inf without a warning."""
    with np.errstate(over="ignore"):
        out = pts[..., 0] * pts[..., 0]
        for k in range(1, pts.shape[-1]):
            out += pts[..., k] * pts[..., k]
    return out


def plane_crossings(b, w, r_max):
    """One crossing column for a hyperplane met where b + r w = 0 along
    x + r theta, with b the signed offset of x and w = theta . normal per
    direction: both rays x +- r theta meet it at most once, at |b / w|."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.abs(b / w)
    return np.where((w != 0.0) & (r > 0.0) & (r <= r_max), r, np.inf)[:, None]


def _scan_crossings(side_fn, x, thetas, r_max):
    """Sign changes of a continuous side function along r -> x + r theta for
    every direction and both its signs, as a ``boundary_crossings`` table:
    one call of ``side_fn`` on 256 log-spaced probes of each ray, then
    ``brentq`` on each bracket."""
    from scipy.optimize import brentq

    x = np.asarray(x, dtype=float)
    th = np.concatenate([thetas, -thetas])
    r_lo = 1e-9 * max(1.0, float(np.linalg.norm(x)))
    n_probe = 256
    rr = np.geomspace(r_lo, r_max, n_probe)
    pts = x + rr[None, :, None] * th[:, None, :]
    sgn = np.sign(np.asarray(side_fn(pts.reshape(-1, len(x))))).reshape(
        len(th), n_probe)
    rows, cols = np.nonzero(sgn[:, :-1] * sgn[:, 1:] < 0)
    slot = np.arange(len(rows)) - np.searchsorted(rows, rows)  # within a row
    table = np.full((len(th), int(slot.max(initial=-1)) + 1), np.inf)
    for i, j, k in zip(rows, cols, slot):
        f = lambda r: float(side_fn((x + r * th[i])[None, :])[0])
        try:
            table[i, k] = brentq(f, rr[j], rr[j + 1], xtol=1e-13)
        except ValueError:
            pass
    return np.hstack(np.split(table, 2))


class Domain:
    """Base class; concrete variants implement the geometry services.

    Contract: ``contains(x) == (dist(x) > 0)`` for every point, so callers
    that need both make one ``dist`` call, and ``dist_bound`` keeps it.
    """

    dim = 2
    bounded = True
    # a certified core ball: a Ball inside the domain whose exit law
    # ``wos.solve_points`` takes as the first step of a control variate;
    # None where the domain keeps none (StarShaped keeps one)
    core = None

    def contains(self, x):
        raise NotImplementedError

    def dist(self, x):
        """Distance to the boundary inside, 0 outside (and on a NaN row)."""
        return np.fmax(self.signed_dist(x), 0.0)

    def project(self, x):
        raise NotImplementedError

    def dist_bound(self, x, exact_below=0.0):
        """A lower bound on ``dist``: 0 outside, positive inside (so
        ``contains(x) == (dist_bound(x) > 0)``), and below ``exact_below``
        exactly where ``dist`` is: where the bound falls below
        ``exact_below`` and an upper bound on ``dist`` does not, it is
        ``dist`` itself.  A ball of this radius about x lies in the domain,
        which is all a walk-on-spheres step needs.  Here it is ``dist``
        itself; convex polygons and star domains override it with closed
        forms."""
        return self.dist(x)

    def signed_dist(self, x):
        """Distance to the boundary, positive inside and negative outside."""
        raise NotImplementedError

    def boundary_crossings(self, x, thetas, r_max):
        """Where the rays x + r theta_i and x - r theta_i cross the boundary,
        for the rows theta_i of the (D, dim) array ``thetas``: a (D, k)
        table padded with +inf whose finite entries in row i are the radii
        in (0, r_max] of the crossings (unordered, maybe repeated).  Rows
        are computed elementwise, so a row does not depend on the batch
        around it.  Here the sign changes of ``signed_dist``; Ball, HalfPlane
        and Cone have closed forms, StarShaped scans its radial gap."""
        return _scan_crossings(self.signed_dist, x, thetas, r_max)

    def angular_breakpoints(self, x):
        """Angles (read mod pi) of the directions theta where the crossings
        of x +- r theta with the boundary change pattern: a straight piece
        of the boundary met end on, or the ray through a vertex.  None
        here; HalfPlane and Cone have them."""
        return ()

    @property
    def diameter(self):
        raise UnsupportedVariantError(f"{type(self).__name__} is unbounded")


class Ball(Domain):
    def __init__(self, center, radius, dim=None):
        center = np.atleast_1d(_finite("center", center))
        radius = float(_finite("radius", radius))
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
        r = np.sqrt(row_norm2(pts - self.center))
        return _maybe_scalar(r < self.radius, single)

    # the benchmark's tracer wraps the dist of each walked domain class
    dist = Domain.dist

    def signed_dist(self, x):
        pts, single = _as_points(x, self.dim)
        r = np.sqrt(row_norm2(pts - self.center))
        return _maybe_scalar(self.radius - r, single)

    def boundary_crossings(self, x, thetas, r_max):
        """|x + r theta - c| = R is a quadratic in r whose root moduli are
        the crossings of x +- r theta: two columns."""
        v = np.asarray(x, dtype=float) - self.center
        b = np.sum(thetas * v, axis=1)
        disc = b * b - (float(v @ v) - self.radius ** 2)
        sq = np.sqrt(np.maximum(disc, 0.0))
        roots = np.abs(np.column_stack([-b - sq, -b + sq]))
        ok = (disc > 0.0)[:, None] & (roots > 0.0) & (roots <= r_max)
        return np.where(ok, roots, np.inf)

    def project(self, x):
        pts, single = _as_points(x, self.dim)
        v = pts - self.center
        r = np.sqrt(row_norm2(v))
        if np.any(r >= self.radius):
            raise DomainError("project requires an interior point")
        # the centre projects along the first axis
        direction = np.where((r > 0.0)[:, None],
                             v / np.where(r > 0.0, r, 1.0)[:, None],
                             np.eye(self.dim)[0])
        z0 = self.center + self.radius * direction
        return _maybe_scalar(z0, single), _maybe_scalar(-direction, single)

    def psi_value(self, x):
        """psi = (R^2 - |x - c|^2) / (2R), vectorized; negative outside Omega."""
        pts, single = _as_points(x, self.dim)
        v = pts - self.center
        psi = (self.radius ** 2 - row_norm2(v)) / (2.0 * self.radius)
        return _maybe_scalar(psi, single)


class HalfPlane(Domain):
    """Omega = {x : e . x > 0} with e the inward unit normal."""

    bounded = False

    def __init__(self, normal):
        normal = np.atleast_1d(_finite("normal", normal))
        n = np.linalg.norm(normal)
        if n == 0:
            raise ParameterError("normal must be nonzero")
        self.normal = normal / n
        self.dim = len(self.normal)

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        return _maybe_scalar(row_dot(pts, self.normal) > 0.0, single)

    def project(self, x):
        pts, single = _as_points(x, self.dim)
        h = row_dot(pts, self.normal)
        if not np.all(h > 0.0):
            raise DomainError("project requires an interior point")
        normal = np.broadcast_to(self.normal, pts.shape).copy()
        return (_maybe_scalar(pts - h[:, None] * self.normal, single),
                _maybe_scalar(normal, single))

    def psi_value(self, x):
        pts, single = _as_points(x, self.dim)
        return _maybe_scalar(row_dot(pts, self.normal), single)

    signed_dist = psi_value

    def boundary_crossings(self, x, thetas, r_max):
        return plane_crossings(float(np.asarray(x, dtype=float) @ self.normal),
                               np.sum(thetas * self.normal, axis=1), r_max)

    def angular_breakpoints(self, x):
        """The tangent direction of the boundary line (2-D only)."""
        if self.dim != 2:
            return ()
        return (np.arctan2(self.normal[1], self.normal[0]) + 0.5 * np.pi,)


class Cone(Domain):
    """The open cone C_{-eta}: (e.x)/|x| > -eta (1 - (e.x)^2/|x|^2).

    Unbounded and Lipschitz; used as the comparison region for the cone
    barrier.  dim 2 only.
    """

    bounded = False
    dim = 2

    def __init__(self, axis, eta):
        axis = np.atleast_1d(_finite("axis", axis))
        if len(axis) != 2:
            raise ParameterError("cone axis must be 2-dimensional")
        n = np.linalg.norm(axis)
        if n == 0:
            raise ParameterError("axis must be nonzero")
        eta = float(_finite("eta", eta))
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

    def psi_value(self, x):
        """psi(x); positive inside the cone, zero on its boundary."""
        pts, single = _as_points(x, 2)
        r = np.sqrt(row_norm2(pts))
        p = row_dot(pts, self.axis)
        with np.errstate(invalid="ignore", divide="ignore"):
            val = p + self.eta * (r - p ** 2 / r)
        val = np.where(r == 0.0, 0.0, val)
        return _maybe_scalar(val, single)

    def contains(self, x):
        pts, single = _as_points(x, 2)
        return _maybe_scalar(np.asarray(self.psi_value(pts)) > 0.0, single)

    def _nearest(self, pts):
        """The nearest boundary point to each row x of pts and the distance
        to it: the foot t w with t = max(x . w, 0) on each edge ray, and the
        nearer of the two feet (the first edge on a tie).  The row dots are
        ``np.vecdot``, so a row does not depend on the batch around it.  The
        one nearest-point primitive behind ``dist``, ``signed_dist`` and
        ``project``."""
        feet, dists = [], []
        for w in self.edge_dirs:
            foot = np.maximum(np.vecdot(pts, w), 0.0)[:, None] * w
            v = pts - foot
            feet.append(foot)
            dists.append(np.sqrt(np.vecdot(v, v)))
        second = dists[1] < dists[0]
        return (np.where(second[:, None], feet[1], feet[0]),
                np.where(second, dists[1], dists[0]))

    def signed_dist(self, x):
        pts, single = _as_points(x, 2)
        d = self._nearest(pts)[1]
        return _maybe_scalar(np.where(self.contains(pts), d, -d), single)

    def project(self, x):
        pts, single = _as_points(x, 2)
        if not np.all(self.contains(pts)):
            raise DomainError("project requires an interior point")
        z0, d = self._nearest(pts)
        # at the vertex the normal is the bisector, the axis
        normal = np.where((np.vecdot(z0, z0) == 0.0)[:, None], self.axis,
                          (pts - z0) / d[:, None])
        return _maybe_scalar(z0, single), _maybe_scalar(normal, single)

    def boundary_crossings(self, x, thetas, r_max):
        """Closed form, three columns per ray x +- r theta: where it meets
        the line of each edge, kept when that point lies on the edge's half
        line (t >= 0), and the vertex, when the ray runs through it."""
        x = np.asarray(x, dtype=float)
        th0, th1 = np.concatenate([thetas, -thetas]).T   # +theta rows first
        cols = []
        for w in self.edge_dirs:
            den = th0 * w[1] - th1 * w[0]
            with np.errstate(divide="ignore", invalid="ignore"):
                r = (x[1] * w[0] - x[0] * w[1]) / den
            t = (x[0] + r * th0) * w[0] + (x[1] + r * th1) * w[1]
            ok = (np.abs(den) >= 1e-14) & (r > 0.0) & (r <= r_max) & (t >= 0.0)
            cols.append(np.where(ok, r, np.inf))
        cross = x[0] * th1 - x[1] * th0
        along = -(x[0] * th0 + x[1] * th1)
        ok = ((np.abs(cross) < 1e-14 * max(1.0, np.linalg.norm(x)))
              & (along > 0.0) & (along <= r_max))
        cols.append(np.where(ok, along, np.inf))
        return np.hstack(np.split(np.column_stack(cols), 2))

    def angular_breakpoints(self, x):
        """The edge directions, and the direction of x (the ray through the
        vertex) unless x is the vertex."""
        x = np.asarray(x, dtype=float)
        out = [np.arctan2(w[1], w[0]) for w in self.edge_dirs]
        if np.linalg.norm(x) > 0:
            out.append(np.arctan2(x[1], x[0]))
        return tuple(out)


class Polygon(Domain):
    """Simple polygon given by counterclockwise vertices, shape (m, 2)."""

    dim = 2

    def __init__(self, vertices):
        verts = _finite("vertices", vertices)
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

    dist = Domain.dist   # named here for the tracer, as on Ball

    def dist_bound(self, x, exact_below=0.0):
        """On a convex polygon, min_i (x - a_i) . nu_i, the distance to the
        nearest edge line, which inside is the distance itself and clearly
        outside (below -_exact_floor) is negative, so the distance is 0.
        Rows near 0 (below _exact_floor), NaN rows and rows where it falls
        below ``exact_below`` while the upper bound it + _exact_floor does
        not get the edge pass's exact ``dist``.  On the unit square it is
        ``dist`` bit for bit.  Elsewhere the two formulas round
        differently, a few ulps of the coordinates apart (far below
        _exact_floor), so a row whose ``dist`` is within those ulps of
        ``exact_below`` may read on the other side of it.  Non-convex
        polygons return ``dist``: their edge lines cut through the
        interior."""
        if not self.convex:
            return self.dist(x)
        pts, single = _as_points(x, 2)
        px, py = pts[:, 0], pts[:, 1]
        bound = np.full(len(pts), np.inf)
        # one edge at a time: a min over a short trailing axis is slow
        for nx, ny, off in self._lines:
            bound = np.minimum(bound, px * nx + py * ny - off)
        outside = bound < -self._exact_floor
        settled = (bound >= self._exact_floor) & (
            (bound >= exact_below) | (bound + self._exact_floor < exact_below))
        exact = ~(settled | outside)
        if np.any(exact):
            _, _, d, inside = self._edge_pass(pts.compress(exact, axis=0))
            bound[exact] = np.where(inside, d, 0.0)
        bound[outside] = 0.0
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
    """Star-shaped (about the origin) smooth domain r(theta) given by a
    finite cosine/sine series; r(theta) >= r_min > 0 is required.  Its side
    function ``psi_value`` is the radial gap r(theta_x) - |x| flattened to a
    constant before the origin: C^2 on the domain and comparable to d.
    Its ``core`` is the disc of radius r_lo <= min r about the origin
    (None when the series has no harmonic: the star is then that disc)."""

    dim = 2

    def __init__(self, coeff_cos, coeff_sin=()):
        self.coeff_cos = np.atleast_1d(_finite("coeff_cos", coeff_cos))
        self.coeff_sin = np.atleast_1d(_finite("coeff_sin", coeff_sin)) \
            if len(coeff_sin) else np.zeros(0)
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
        # dist_bound: M = sum_k k (|a_k| + |b_k|) >= max |r'|, the sampled
        # minimum lowered by M times half a sample spacing (a certified
        # lower bound on min r), and the rounding error of the radial gap
        # r(theta_x) - |x|, a few ulps of the series' terms
        k_cos = np.arange(len(self.coeff_cos))
        k_sin = np.arange(1, len(self.coeff_sin) + 1)
        self._slope_bound = float(np.sum(k_cos * np.abs(self.coeff_cos))
                                  + np.sum(k_sin * np.abs(self.coeff_sin)))
        self._r_lo = self.r_min - self._slope_bound * np.pi / len(th)
        # the core: the disc of radius r_lo about the origin; a star with no
        # harmonic is a disc, whose core would be the whole domain
        harmonic = self._cos_terms or self._sin_terms
        self.core = (Ball((0.0, 0.0), self._r_lo)
                     if harmonic and self._r_lo > 0.0 else None)
        eps = np.finfo(float).eps
        coeff_sum = float(np.sum(np.abs(self.coeff_cos))
                          + np.sum(np.abs(self.coeff_sin)))
        self._gap_slack = 4.0 * eps * (coeff_sum
                                       + 2.0 * np.pi * self._slope_bound)
        # dist_bound's upper bound gap + _upper_slack on _nearest's distance:
        # B(t) at the computed angle t of x = rho u(theta_x) lies within
        # |r(t) - rho| + rho |t - theta_x| of x, that is the computed gap
        # up to _gap_slack plus rho (< sum |c_k|) times atan2's error (below
        # 4 eps pi); _nearest's |x - z| rounds as the gap does, within
        # another _gap_slack
        self._upper_slack = (2.0 * self._gap_slack
                             + 4.0 * eps * np.pi * coeff_sum)
        # boundary grid seeding the nearest-point search
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
        rho = np.sqrt(row_norm2(pts))
        return rho, self.radial(np.arctan2(pts[:, 1], pts[:, 0])) - rho

    def contains(self, x):
        pts, single = _as_points(x, 2)
        return _maybe_scalar(self._radial_gap(pts)[1] > 0.0, single)

    def boundary_crossings(self, x, thetas, r_max):
        return _scan_crossings(lambda p: self._radial_gap(p)[1],
                               x, thetas, r_max)

    # the relative rounding margin of the cone bound below
    _BOUND_MARGIN = 1e-12

    def dist_bound(self, x, exact_below=0.0):
        """Certified lower bound on ``dist`` in O(1) per point.

        With rho = |x|, G = r(theta_x) - rho and F(y) = |y| - r(arg y):
        F(x) = -G, F vanishes at the nearest boundary point z, and |grad F|
        <= sqrt(1 + M^2/|y|^2) with M >= max |r'|.  If |x - z| < lam rho, the
        segment to z keeps |y| > (1 - lam) rho = q, so G <= |x - z| sqrt(1 +
        M^2/q^2).  Hence dist >= min(lam rho, G q / sqrt(q^2 + M^2)) for
        every lam in (0, 1); each point takes the one split lam = min(1/2,
        G / sqrt(rho^2 + M^2)), where the two terms about cross (at q =
        rho they would be equal).  Also dist >= r_lo - rho, since the disc
        of radius r_lo <= min r lies in the domain.  The larger of the two,
        lowered by a relative margin and the gap's rounding error, is the
        bound.  The gap is an upper bound: B(theta_x) is a boundary point
        at distance G, so dist <= G + _upper_slack (the rounding of the
        gap, of the angle theta_x and of the exact distance; see
        ``__init__``).  Inside points where the bound falls to 0, or below
        ``exact_below`` while that upper bound does not, get the exact
        distance.
        """
        pts, single = _as_points(x, 2)
        rho, gap = self._radial_gap(pts)
        m2 = self._slope_bound * self._slope_bound
        # the origin of a disc (rho = M = 0) divides G and 0 by 0, and fmin
        # drops the NaN term; far outside rows may overflow q^2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lam = np.minimum(0.5, gap / np.sqrt(rho * rho + m2))
            q = (1.0 - lam) * rho
            cone = np.fmin(lam * rho, gap * q / np.sqrt(q * q + m2))
        bound = np.maximum(self._r_lo - rho, cone)
        bound = bound * (1.0 - self._BOUND_MARGIN) - self._gap_slack
        inside = gap > 0.0
        bound = np.where(inside, bound, 0.0)
        exact = inside & ((bound <= 0.0) | (
            (bound < exact_below) & (gap + self._upper_slack >= exact_below)))
        if np.any(exact):
            bound[exact] = self._nearest(pts.compress(exact, axis=0))[2]
        return _maybe_scalar(bound, single)

    def boundary_point(self, theta):
        r = self.radial(theta)
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)

    def _nearest(self, pts):
        """The nearest boundary point B(theta) to each row x of pts, as the
        parameter theta, the point and the distance |x - B(theta)|: damped
        Newton from the nearest node of the 512-point grid, each point
        stopping at its first step below tolerance, with golden-section
        search on the grid cell where Newton stalls (a non-positive
        curvature, or a step above 1e-10 diameter that does not descend).
        The one nearest-point solver behind ``dist``, ``signed_dist``,
        ``dist_bound`` (on the rows its bounds leave open) and ``project``;
        every row is on its own, so a row's result does not depend on the
        rest of the batch."""
        tol = 1e-12 * self.diameter
        flat = 1e-10 * self.diameter
        cell = 2.0 * np.pi / 256      # damping: stay within the grid cells
        px, py = pts[:, 0], pts[:, 1]
        nodes = self._proj_nodes
        # the node scan in 128-row chunks caps its (rows, 512) temporaries
        k = np.empty(len(pts), dtype=np.intp)
        for lo in range(0, len(pts), 128):
            k[lo:lo + 128] = np.argmin(
                (nodes[:, 0] - px[lo:lo + 128, None]) ** 2
                + (nodes[:, 1] - py[lo:lo + 128, None]) ** 2, axis=1)
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
            # a step below flat changes the squared distance by less than
            # its rounding, so failing the descent test there is
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
        z0 = self.boundary_point(th)
        return th, z0, np.sqrt(row_norm2(pts - z0))

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

    def signed_dist(self, x):
        pts, single = _as_points(x, 2)
        d = self._nearest(pts)[2]
        inside = np.asarray(self.contains(pts))
        return _maybe_scalar(np.where(inside, d, -d), single)

    def dist(self, x):
        pts, single = _as_points(x, 2)
        out = np.zeros(pts.shape[0])
        inside = np.asarray(self.contains(pts))
        if np.any(inside):
            out[inside] = self._nearest(pts[inside])[2]
        return _maybe_scalar(out, single)

    def project(self, x):
        pts, single = _as_points(x, 2)
        if not np.all(self.contains(pts)):
            raise DomainError("project requires an interior point")
        th, z0, n = self._nearest(pts)
        normal = (pts - z0) / np.where(n > 0.0, n, 1.0)[:, None]
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

    # --- side function: flattened radial gap ----------------------------
    # psi = h(rho) with rho(x) = r(theta_x) - |x|; h is the identity near the
    # boundary and flattens to a constant before the origin, so psi is C^2 on
    # all of Omega while psi ~ d near the boundary.

    def _h(self, rho):
        """The flattened gap h(rho), elementwise: the identity up to r1, a
        constant from r2 on, and in between h' falls from 1 to 0 along a
        quintic smoothstep, so h(rho) = r1 + int_{r1}^{rho} h'."""
        r1, r2 = self.r_min / 3.0, 2.0 * self.r_min / 3.0
        w = r2 - r1

        def ramp(g):
            t = np.clip((g - r1) / w, 0.0, 1.0)
            t4, t5, t6 = (t ** k for k in (4, 5, 6))
            return r1 + ((g - r1) - (2.5 * t4 - 3.0 * t5 + t6) * w)

        rho = np.asarray(rho, dtype=float)
        # the constant is the ramp's value at r2 (read just below it)
        return np.where(rho <= r1, rho,
                        np.where(rho >= r2, ramp(r2 - 1e-15), ramp(rho)))

    def psi_value(self, x):
        pts, single = _as_points(x, 2)
        return _maybe_scalar(self._h(self._radial_gap(pts)[1]), single)


# ---------------------------------------------------------------------------
# spec-shaped module-level operations

# each variant's class and the keys of its config record
_VARIANTS = {"ball": (Ball, ("center", "radius")),
             "halfplane": (HalfPlane, ("normal",)),
             "cone": (Cone, ("axis", "eta")),
             "polygon": (Polygon, ("vertices",)),
             "star": (StarShaped, ("coeff_cos", "coeff_sin"))}


def domain_from_config(cfg):
    """Domain config records, one key per variant:
    {"ball": {"center": [..], "radius": r}}, {"halfplane": {"normal": [..]}},
    {"cone": {"axis": [..], "eta": e}}, {"polygon": {"vertices": [[..]..]}},
    {"star": {"coeff_cos": [..], "coeff_sin": [..]}} (coeff_sin optional).
    Any other key, or a missing required one, raises a ParameterError
    naming it.
    """
    return build_record("domain variant", _VARIANTS, cfg)


def unit_square():
    return Polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
