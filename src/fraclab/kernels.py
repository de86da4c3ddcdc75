"""Admissible kernel class for the nonlocal operator.

A kernel is K(y) = a(y/|y|) * |y|^(-N-2s) with a symmetric angular density
a bounded between two ellipticity constants.  The isotropic case a == 1 is
the fractional Laplacian up to a positive constant; we fix the convention
that no such constant is carried, so every downstream check is built on
signs, zeros, ratios and homogeneity exponents, all invariant under a
positive rescaling of the operator.  Kernel records go through
``errors.build_record``.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError, build_record


def _ones_density(theta):
    theta = np.asarray(theta, dtype=float)
    return np.ones(theta.shape[:-1])


@dataclass(frozen=True)
class KernelSpec:
    """Kernel of order s with angular density a and ellipticity pair (lam, Lam).

    ``angular_density`` maps unit vectors, shaped (..., dim), to values
    (...,).  It must be even and take values in [lam, Lam]; this is checked
    by sampling via :func:`validate_kernel`, not enforced symbolically.
    ``cos_even`` holds the coefficients of a custom record's density, so
    that :func:`kernel_to_config` can write the record back; it is None for
    a density given as a bare callable.
    """

    s: float
    dim: int
    lam: float
    Lam: float
    angular_density: Callable = field(default=_ones_density, repr=False)
    name: str = "custom"
    cos_even: tuple = None

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ParameterError(f"order s must lie in (0,1), got {self.s}")
        if self.dim < 1:
            raise ParameterError(f"dimension must be >= 1, got {self.dim}")
        if not 0.0 < self.lam <= self.Lam:
            raise ParameterError(
                f"ellipticity must satisfy 0 < lam <= Lam, got ({self.lam}, {self.Lam})"
            )


def make_fractional_laplacian(s, dim=2):
    """Kernel of the fractional Laplacian: a == 1, lam = Lam = 1.

    No normalizing constant is applied (see module docstring).
    """
    if not (isinstance(dim, (int, np.integer, float))
            and float(dim).is_integer()):
        raise ParameterError(f"kernel dim must be an integer, got {dim!r}")
    return KernelSpec(s=float(s), dim=int(dim), lam=1.0, Lam=1.0,
                      angular_density=_ones_density, name="frac_lap")


def _sphere_directions(dim, n):
    """Quasi-random directions on the unit sphere.

    dim 1: alternating signs; dim 2: golden-angle sequence; higher dims fall
    back to a Gaussian of Philox key 0 normalized to the sphere.
    """
    if dim == 1:
        return np.where(np.arange(n)[:, None] % 2 == 0, 1.0, -1.0)
    if dim == 2:
        golden = np.pi * (3.0 - np.sqrt(5.0))
        phi = golden * np.arange(n)
        return np.stack([np.cos(phi), np.sin(phi)], axis=1)
    rng = np.random.Generator(np.random.Philox(key=0))
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@dataclass(frozen=True)
class KernelValidation:
    samples: int
    max_symmetry_violation: float
    worst_lower_margin: float   # min a(theta) - lam; negative means violated
    worst_upper_margin: float   # min Lam - a(theta); negative means violated
    symmetry_ok: bool
    bounds_ok: bool

    @property
    def ok(self):
        return self.symmetry_ok and self.bounds_ok


def validate_kernel(kernel, samples=1000):
    """Sample the angular density and report symmetry / ellipticity margins,
    each passed within 1e-12.

    Violations are reported, never raised.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    tol = 1e-12
    theta = _sphere_directions(kernel.dim, samples)
    a_plus = np.asarray(kernel.angular_density(theta), dtype=float)
    a_minus = np.asarray(kernel.angular_density(-theta), dtype=float)
    sym = float(np.max(np.abs(a_plus - a_minus))) if samples else 0.0
    both = np.concatenate([a_plus, a_minus])
    lower = float(np.min(both - kernel.lam))
    upper = float(np.min(kernel.Lam - both))
    return KernelValidation(
        samples=samples,
        max_symmetry_violation=sym,
        worst_lower_margin=lower,
        worst_upper_margin=upper,
        symmetry_ok=sym <= tol,
        bounds_ok=(lower >= -tol) and (upper >= -tol),
    )


def _cos_even_density(coeffs):
    def density(theta):
        theta = np.asarray(theta, dtype=float)
        phi = np.arctan2(theta[..., 1], theta[..., 0])
        out = np.full(theta.shape[:-1], coeffs[0])
        for k, c in enumerate(coeffs[1:], start=1):
            out = out + c * np.cos(2 * k * phi)
        return out

    return density


def _custom_kernel(s, angular, dim=2, **bounds):
    """A custom record's kernel; ``bounds`` holds its lambda and Lambda."""
    if dim != 2:
        raise ParameterError(f"custom kernels have dim 2 only, got dim {dim!r}")
    if list(angular) != ["cos_even"]:
        raise ParameterError(
            f"custom kernel angular takes cos_even only, got {angular!r}")
    coeffs = tuple(float(c) for c in angular["cos_even"])
    return KernelSpec(float(s), 2, float(bounds["lambda"]),
                      float(bounds["Lambda"]), _cos_even_density(coeffs),
                      name="custom", cos_even=coeffs)


# each kernel type's constructor and the keys of its record besides "type"
_KERNELS = {
    "frac_lap": (make_fractional_laplacian, ("s", "dim")),
    "custom": (_custom_kernel, ("s", "dim", "lambda", "Lambda", "angular")),
}


def kernel_from_config(cfg):
    """Build a KernelSpec from a config record.

    Records: {"type": "frac_lap", "s": .., "dim": ..} (type and dim
    optional: frac_lap, 2) or {"type": "custom", "s", "dim", "lambda",
    "Lambda", "angular": {"cos_even": [c0, c2, c4, ...]}} (dim 2 only) where
    the angular density is the even cosine series c0 + c2 cos(2 phi) + ...
    (symmetric by construction).
    """
    return build_record("kernel type", _KERNELS, {"type": "frac_lap", **cfg},
                        tag="type")


def kernel_to_config(kernel):
    """The record that ``kernel_from_config`` builds ``kernel`` from.  A
    custom kernel whose density is a bare callable has no record and is
    refused."""
    if kernel.name == "frac_lap":
        return {"type": "frac_lap", "s": kernel.s, "dim": kernel.dim}
    if kernel.cos_even is None:
        raise ParameterError(
            f"kernel {kernel.name!r} has no record: its angular density is "
            "a callable, not a cos_even series")
    return {"type": "custom", "s": kernel.s, "dim": kernel.dim,
            "lambda": kernel.lam, "Lambda": kernel.Lam,
            "angular": {"cos_even": list(kernel.cos_even)}}
