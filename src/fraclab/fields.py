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
read it from the domain, in one place: the radial breakpoints are
``Domain.boundary_crossings``, the angular ones
``Domain.angular_breakpoints``, and the smooth radius is
``|Domain.signed_dist|``, inside and outside alike.

``PsiPower(domain, alpha)`` is the one power-of-psi field, (psi_+)^alpha
with psi the domain's side function ``psi_value``.  It is the paper's
comparison function in each setting: the half-space power (x . nu)_+^alpha
on a HalfPlane, psi^alpha near the smooth boundary of a Ball or
StarShaped domain, and the cone barrier Phi_beta on a Cone.
``HalfSpacePower(nu, alpha)`` and ``ConeBarrier(e, eta, beta)`` construct
the first and the last.
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


class PsiPower(Field):
    """(psi_+)^alpha with psi the side function ``psi_value`` of a Ball,
    HalfPlane, StarShaped or Cone domain: the regularized distance psi^alpha
    inside and zero outside, the half-space power (x . nu)_+^alpha on a
    HalfPlane, the cone barrier Phi_beta on a Cone.  On the unbounded
    domains psi is positively homogeneous of degree 1, so the field grows
    like, and is homogeneous of, degree alpha.  Its kinks are the domain
    boundary, read from the domain."""

    def __init__(self, domain, alpha):
        if not isinstance(domain, (Ball, Cone, HalfPlane, StarShaped)):
            raise ParameterError(
                f"domain must be a Ball, Cone, HalfPlane or StarShaped (a "
                f"domain with a side function psi), not "
                f"{type(domain).__name__}")
        self.domain = domain
        self.alpha = float(alpha)
        self.growth = 0.0 if domain.bounded else self.alpha
        self.homogeneity = None if domain.bounded else self.alpha

    def __call__(self, pts):
        psi = np.asarray(self.domain.psi_value(np.asarray(pts, dtype=float)))
        return np.maximum(psi, 0.0) ** self.alpha

    def smooth_radius(self, x):
        return abs(float(self.domain.signed_dist(np.asarray(x, dtype=float))))

    def radial_breakpoints(self, x, thetas, r_max):
        return self.domain.boundary_crossings(x, thetas, r_max)

    def angular_breakpoints(self, x):
        return self.domain.angular_breakpoints(x)


def HalfSpacePower(nu, alpha):
    """(x . nu)_+^alpha, the half-space barrier."""
    return PsiPower(HalfPlane(nu), alpha)


def ConeBarrier(e, eta, beta):
    """Phi_beta = (psi_+)^beta on the cone C_{-eta} about the axis e."""
    return PsiPower(Cone(e, eta), beta)


class CompositeField(Field):
    """Value from ``inside`` on Omega and from ``outside`` elsewhere, with the
    domain boundary as the kink surface, read from the domain as
    ``PsiPower`` reads it.  Used for the extended datum (harmonic extension
    inside, raw datum outside)."""

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
        for rows, field in ((mask, self.inside), (~mask, self.outside)):
            if np.any(rows):
                np.place(out, rows, field(p.compress(rows, axis=0)))
        return float(out[0]) if single else out

    smooth_radius = PsiPower.smooth_radius
    radial_breakpoints = PsiPower.radial_breakpoints
    angular_breakpoints = PsiPower.angular_breakpoints
