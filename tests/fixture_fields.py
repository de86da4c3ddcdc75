"""Fields that only the tests feed to the operator: constants, affine maps,
wrapped callables and linear combinations, on the package's ``Field``
interface."""

import numpy as np

from fraclab.fields import Field
from fraclab.geometry import row_dot


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
        return row_dot(pts, self.b) + self.c


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
