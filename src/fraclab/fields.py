"""Scalar fields fed to the nonlocal operator.

A field carries, besides its pointwise values, the metadata the singular
quadrature needs:

* ``growth``: exponent a_g such that the symmetric second difference about
  any fixed x is O(1 + |y|^{a_g}) for large |y|.  The far integral converges
  iff a_g < 2s, and the operator refuses otherwise.  For Hoelder-type fields
  this is the usual growth exponent; for affine fields it is 0 because the
  second difference cancels the linear part exactly.
* ``smooth_radius(x)``: distance from x to the nearest point where the field
  is not smooth (positivity kinks, domain boundaries); the near-field ball
  must stay inside it.
* ``radial_breakpoints(x, thetas, r_max)``: for the rows of the (D, dim)
  array ``thetas``, a (D, k) table padded with +inf whose finite entries in
  row i are the radii in (0, r_max] where u(x + r theta_i) or
  u(x - r theta_i) has a kink (unordered, maybe repeated), so radial panels
  can be split there.  Rows are computed elementwise, never by a matrix
  product, so a row does not depend on the batch around it.
* ``angular_breakpoints(x)``: directions (angles mod pi) where the radial
  kink structure changes, so angular panels can be split there.

Fields whose kink is a domain boundary (``PsiPower``, ``CompositeField``)
read it from the domain: the radial breakpoints are
``Domain.boundary_crossings``, and the smooth radius is
``|Domain.signed_dist|``, inside and outside alike.
"""

import numpy as np

from .errors import ParameterError
from .geometry import Ball, Cone, HalfPlane, StarShaped, plane_crossings


class Field:
    growth = 0.0
    homogeneity = None  # degree of positive homogeneity about the origin, if any

    def __call__(self, pts):
        raise NotImplementedError

    def smooth_radius(self, x):
        return np.inf

    def radial_breakpoints(self, x, thetas, r_max):
        return np.empty((len(thetas), 0))

    def angular_breakpoints(self, x):
        return ()


class ConstantField(Field):
    def __init__(self, value):
        self.value = float(value)
        self.homogeneity = 0.0

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.full(pts.shape[:-1], self.value)


class AffineField(Field):
    """c + b . x; growth 0 because second differences kill the linear part."""

    def __init__(self, b, c=0.0):
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        self.c = float(c)

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        return pts @ self.b + self.c


class CallableField(Field):
    """Wrap a plain vectorized callable.

    Without a declared tail form the far field beyond the cutoff is only
    bounded, not integrated; declare ``growth`` honestly.
    """

    def __init__(self, fn, growth=0.0, smooth_radius_fn=None, homogeneity=None):
        self.fn = fn
        self.growth = float(growth)
        self._smooth_radius_fn = smooth_radius_fn
        self.homogeneity = homogeneity

    def __call__(self, pts):
        return np.asarray(self.fn(np.asarray(pts, dtype=float)), dtype=float)

    def smooth_radius(self, x):
        if self._smooth_radius_fn is None:
            return np.inf
        return float(self._smooth_radius_fn(np.asarray(x, dtype=float)))


class LinearCombinationField(Field):
    def __init__(self, coeffs, fields):
        self.coeffs = [float(c) for c in coeffs]
        self.fields = list(fields)
        self.growth = max(f.growth for f in self.fields)

    def __call__(self, pts):
        out = None
        for c, f in zip(self.coeffs, self.fields):
            v = c * f(pts)
            out = v if out is None else out + v
        return out

    def smooth_radius(self, x):
        return min(f.smooth_radius(x) for f in self.fields)

    def radial_breakpoints(self, x, thetas, r_max):
        return np.hstack([f.radial_breakpoints(x, thetas, r_max)
                          for f in self.fields])

    def angular_breakpoints(self, x):
        bps = []
        for f in self.fields:
            bps.extend(f.angular_breakpoints(x))
        return tuple(bps)


class TranslatedField(Field):
    """u(. - shift)."""

    def __init__(self, base, shift):
        self.base = base
        self.shift = np.atleast_1d(np.asarray(shift, dtype=float))
        self.growth = base.growth

    def __call__(self, pts):
        return self.base(np.asarray(pts, dtype=float) - self.shift)

    def smooth_radius(self, x):
        return self.base.smooth_radius(np.asarray(x, dtype=float) - self.shift)

    def radial_breakpoints(self, x, thetas, r_max):
        return self.base.radial_breakpoints(
            np.asarray(x, dtype=float) - self.shift, thetas, r_max)

    def angular_breakpoints(self, x):
        return self.base.angular_breakpoints(
            np.asarray(x, dtype=float) - self.shift)


def _wrap_angle_mod_pi(phi):
    return float(phi % np.pi)


class PowerPlus1D(Field):
    """((t + shift)_+)^alpha on the line; s-harmonic when alpha = s, shift-free
    version is positively homogeneous of degree alpha."""

    def __init__(self, alpha, shift=0.0):
        self.alpha = float(alpha)
        self.shift = float(shift)
        self.growth = float(alpha)
        self.homogeneity = float(alpha) if shift == 0.0 else None

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        t = pts[..., 0] if pts.ndim > 1 else pts
        return np.maximum(t + self.shift, 0.0) ** self.alpha

    def smooth_radius(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        return abs(float(x[0]) + self.shift)

    def radial_breakpoints(self, x, thetas, r_max):
        x = np.asarray(x, dtype=float).reshape(-1)
        return plane_crossings(float(x[0]) + self.shift, thetas[:, 0], r_max)


class HalfSpacePower(Field):
    """(x . nu)_+^alpha, the half-space barrier; homogeneous of degree alpha."""

    def __init__(self, nu, alpha):
        nu = np.atleast_1d(np.asarray(nu, dtype=float))
        self.nu = nu / np.linalg.norm(nu)
        self.alpha = float(alpha)
        self.growth = float(alpha)
        self.homogeneity = float(alpha)

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.maximum(pts @ self.nu, 0.0) ** self.alpha

    def smooth_radius(self, x):
        return abs(float(np.asarray(x, dtype=float) @ self.nu))

    def radial_breakpoints(self, x, thetas, r_max):
        return plane_crossings(float(np.asarray(x, dtype=float) @ self.nu),
                               np.sum(thetas * self.nu, axis=1), r_max)

    def angular_breakpoints(self, x):
        # directions tangent to the kink plane
        if len(self.nu) != 2:
            return ()
        phi_nu = np.arctan2(self.nu[1], self.nu[0])
        return (_wrap_angle_mod_pi(phi_nu + 0.5 * np.pi),)


class PsiPower(Field):
    """psi(x)^alpha inside Omega, zero outside, with psi the regularized
    distance of a Ball, HalfPlane or StarShaped domain."""

    def __init__(self, domain, alpha):
        if not isinstance(domain, (Ball, HalfPlane, StarShaped)):
            raise ParameterError(
                f"domain must be a Ball, HalfPlane or StarShaped (a domain "
                f"with a regularized distance), not {type(domain).__name__}")
        self.domain = domain
        self.alpha = float(alpha)
        self.growth = float(alpha) if isinstance(domain, HalfPlane) else 0.0
        self.homogeneity = float(alpha) if isinstance(domain, HalfPlane) else None

    def __call__(self, pts):
        psi = np.asarray(self.domain.psi_value(np.asarray(pts, dtype=float)))
        return np.maximum(psi, 0.0) ** self.alpha

    def smooth_radius(self, x):
        return abs(float(self.domain.signed_dist(np.asarray(x, dtype=float))))

    def radial_breakpoints(self, x, thetas, r_max):
        return self.domain.boundary_crossings(x, thetas, r_max)


class ConeBarrier(Field):
    """Phi_beta = (psi_+)^beta with psi(x) = e.x + eta |x| (1-(e.x)^2/|x|^2);
    positively homogeneous of degree beta, positive exactly on the cone."""

    def __init__(self, e, eta, beta):
        self.cone = Cone(e, eta)
        self.e = self.cone.axis
        self.eta = float(eta)
        self.beta = float(beta)
        self.growth = float(beta)
        self.homogeneity = float(beta)

    def side_function(self, pts):
        return self.cone.side_function(pts)

    def __call__(self, pts):
        psi = np.asarray(self.cone.side_function(np.asarray(pts, dtype=float)))
        return np.maximum(psi, 0.0) ** self.beta

    def smooth_radius(self, x):
        x = np.asarray(x, dtype=float)
        dists = []
        for w in self.cone.edge_dirs:
            t = max(float(x @ w), 0.0)
            dists.append(float(np.linalg.norm(x - t * w)))
        return min(dists)

    def radial_breakpoints(self, x, thetas, r_max):
        x = np.asarray(x, dtype=float)
        th0, th1 = np.concatenate([thetas, -thetas]).T   # +theta rows first
        cols = []
        for w in self.cone.edge_dirs:
            # the ray meets the line of the edge at r; keep the half line
            den = th0 * w[1] - th1 * w[0]
            with np.errstate(divide="ignore", invalid="ignore"):
                r = (x[1] * w[0] - x[0] * w[1]) / den
            t = (x[0] + r * th0) * w[0] + (x[1] + r * th1) * w[1]
            ok = (np.abs(den) >= 1e-14) & (r > 0.0) & (r <= r_max) & (t >= 0.0)
            cols.append(np.where(ok, r, np.inf))
        # ray through the vertex
        cross = x[0] * th1 - x[1] * th0
        along = -(x[0] * th0 + x[1] * th1)
        ok = ((np.abs(cross) < 1e-14 * max(1.0, np.linalg.norm(x)))
              & (along > 0.0) & (along <= r_max))
        cols.append(np.where(ok, along, np.inf))
        return np.hstack(np.split(np.column_stack(cols), 2))

    def angular_breakpoints(self, x):
        x = np.asarray(x, dtype=float)
        out = [
            _wrap_angle_mod_pi(np.arctan2(w[1], w[0]))
            for w in self.cone.edge_dirs
        ]
        if np.linalg.norm(x) > 0:
            out.append(_wrap_angle_mod_pi(np.arctan2(x[1], x[0])))
        return tuple(out)


class CompositeField(Field):
    """Value from ``inside`` on Omega and from ``outside`` elsewhere, with the
    domain boundary as the kink surface.  Used for the extended datum
    (harmonic extension inside, raw datum outside).  Radial breakpoints are
    the domain's ``boundary_crossings``: Ball, HalfPlane, Polygon and
    StarShaped define them, Cone does not."""

    def __init__(self, domain, inside, outside, growth):
        self.domain = domain
        self.inside = inside
        self.outside = outside
        self.growth = float(growth)

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        p = pts[None, :] if single else pts
        mask = np.asarray(self.domain.contains(p))
        out = np.empty(p.shape[0])
        if np.any(mask):
            out[mask] = self.inside(p[mask])
        if np.any(~mask):
            out[~mask] = self.outside(p[~mask])
        return float(out[0]) if single else out

    def smooth_radius(self, x):
        return abs(float(self.domain.signed_dist(np.asarray(x, dtype=float))))

    def radial_breakpoints(self, x, thetas, r_max):
        return self.domain.boundary_crossings(x, thetas, r_max)
