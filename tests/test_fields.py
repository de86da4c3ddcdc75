"""The batched kink tables of ``Field.radial_breakpoints`` against the
one-direction code they replaced, kept here as the reference."""

import numpy as np
import pytest

from fraclab.barriers import constant_data
from fraclab.errors import ParameterError
from fraclab.fields import (CompositeField, ConeBarrier, HalfSpacePower,
                            PowerPlus1D, PsiPower, TranslatedField)
from fraclab.geometry import Ball, Cone, HalfPlane, StarShaped, unit_square

from fixture_fields import (CallableField, ConstantField,
                            LinearCombinationField)


def _ref_plane(b, w, r_max):
    if w == 0.0:
        return ()
    r = abs(b / w)
    return (r,) if 0.0 < r <= r_max else ()


def _ref_ball(dom, x, theta, r_max):
    v = x - dom.center
    b = float(v @ theta)
    c = float(v @ v) - dom.radius ** 2
    disc = b * b - c
    if disc <= 0.0:
        return ()
    roots = np.abs(np.array([-b - np.sqrt(disc), -b + np.sqrt(disc)]))
    return tuple(sorted({float(r) for r in roots if 0.0 < r <= r_max}))


def _ref_cone(dom, x, theta, r_max):
    roots = set()
    for sign in (1.0, -1.0):
        th = sign * theta
        for w in dom.edge_dirs:
            den = th[0] * w[1] - th[1] * w[0]
            if abs(den) < 1e-14:
                continue
            r = (x[1] * w[0] - x[0] * w[1]) / den
            if 0.0 < r <= r_max:
                t = float((x + r * th) @ w)
                if t >= 0.0:
                    roots.add(float(r))
        cross = x[0] * th[1] - x[1] * th[0]
        along = -(x @ th)
        if abs(cross) < 1e-14 * max(1.0, np.linalg.norm(x)) and along > 0.0:
            if along <= r_max:
                roots.add(float(along))
    return tuple(sorted(roots))


def _ref_scan(side_fn, x, theta, r_max, n_probe=256):
    from scipy.optimize import brentq

    r_lo = 1e-9 * max(1.0, float(np.linalg.norm(x)))
    rr = np.geomspace(r_lo, r_max, n_probe)
    roots = set()
    for sign in (1.0, -1.0):
        pts = x[None, :] + sign * rr[:, None] * theta[None, :]
        sgn = np.sign(np.asarray(side_fn(pts)))
        for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
            f = lambda r: float(side_fn((x + sign * r * theta)[None, :])[0])
            try:
                roots.add(float(brentq(f, rr[i], rr[i + 1], xtol=1e-13)))
            except ValueError:
                pass
    return tuple(sorted(roots))


def _star_side(dom):
    return lambda p: np.asarray(dom.radial(np.arctan2(p[..., 1], p[..., 0]))
                                - np.linalg.norm(p, axis=-1))


def reference_breakpoints(u, x, theta, r_max):
    """The kinks of one direction, as the one-direction interface found
    them (sorted, distinct)."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if isinstance(u, PowerPlus1D):
        return _ref_plane(float(x[0]) + u.shift, float(theta[0]), r_max)
    if isinstance(u, TranslatedField):
        return reference_breakpoints(u.base, x - u.shift, theta, r_max)
    if isinstance(u, LinearCombinationField):
        return tuple(sorted(r for f in u.fields
                            for r in reference_breakpoints(f, x, theta, r_max)))
    dom = u.domain
    if isinstance(dom, HalfPlane):
        return _ref_plane(float(x @ dom.normal), float(theta @ dom.normal),
                          r_max)
    if isinstance(dom, Ball):
        return _ref_ball(dom, x, theta, r_max)
    if isinstance(dom, Cone):
        return _ref_cone(dom, x, theta, r_max)
    if isinstance(u, PsiPower):
        return _ref_scan(_star_side(dom), x, theta, r_max)
    return _ref_scan(dom.signed_dist, x, theta, r_max)


def _directions(extra, n=64):
    phis = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.vstack([np.column_stack([np.cos(phis), np.sin(phis)]),
                      np.asarray(extra, dtype=float).reshape(-1, 2)])


_NU = np.array([0.3, 1.0]) / np.hypot(0.3, 1.0)
_CONE = ConeBarrier([0.0, 1.0], 1.0, 0.3)
_SQUARE = unit_square()

# (name, field, points, degenerate directions added to the 64 regular ones)
CASES = [
    ("power_1d", PowerPlus1D(0.3, shift=0.2), [[0.5, 0.1], [-0.7, 0.4]],
     [[0.0, 1.0], [0.0, -1.0]]),
    ("halfspace", HalfSpacePower(_NU, 0.4), [[0.3, 0.8], [-1.5, -0.2]],
     [[_NU[1], -_NU[0]], [-_NU[1], _NU[0]]]),
    # the ray from (-2, 1) along e1 touches the unit circle: disc == 0
    ("psi_ball", PsiPower(Ball([0.0, 0.0], 1.0), 0.25),
     [[0.0, 0.99], [-2.0, 1.0], [0.0, 0.0], [0.3, -0.5]],
     [[1.0, 0.0], [0.0, 1.0]]),
    ("psi_halfplane", PsiPower(HalfPlane([0.0, 1.0]), 0.5),
     [[0.4, 0.7], [2.0, -0.3]], [[1.0, 0.0], [-1.0, 0.0]]),
    ("psi_star", PsiPower(StarShaped([1.0, 0.0, 0.1]), 0.5),
     [[0.2, 0.1], [1.3, -0.4]], [[1.0, 0.0]]),
    # (0, 0.5) along +-e2 runs through the vertex; (-0.5, 0.6) meets edges
    ("cone", _CONE, [[0.0, 0.5], [-0.5, 0.6], [0.3, -0.2]],
     [[0.0, 1.0], [0.6, 0.8]]),
    ("translated", TranslatedField(_CONE, [0.2, -0.1]),
     [[0.2, 0.4], [-0.3, 0.5]], [[0.0, 1.0]]),
    ("combination", LinearCombinationField(
        [1.0, -0.5], [HalfSpacePower(_NU, 0.4),
                      PsiPower(Ball([0.1, 0.0], 1.0), 0.3)]),
     [[0.2, 0.3], [1.5, 0.2]], [[_NU[1], -_NU[0]]]),
    ("composite_ball", CompositeField(
        Ball([0.0, 0.0], 1.0), constant_data(1.0), constant_data(0.0), 0.0),
     [[0.6, 0.0], [-2.0, 1.0]], [[1.0, 0.0]]),
    ("composite_square", CompositeField(
        _SQUARE, constant_data(1.0), constant_data(0.0), 0.0),
     [[0.3, 0.4], [0.5, 0.5], [1.4, 0.2]], [[1.0, 0.0], [0.0, 1.0]]),
]


# the reference takes theta . v by a BLAS dot, which rounds apart from the
# elementwise sum of the table (an error of a few ulps in w, amplified by
# cancellation in |b / w|); the other cases keep the reference's arithmetic
_RTOL = dict.fromkeys(["halfspace", "psi_ball", "psi_halfplane", "cone",
                       "translated", "combination", "composite_ball"], 1e-14)


@pytest.mark.parametrize("name, u, points, extra", CASES,
                         ids=[c[0] for c in CASES])
def test_table_matches_one_direction_reference(name, u, points, extra):
    thetas = _directions(extra)
    for x in np.asarray(points, dtype=float):
        for r_max in (1e12, 1.5):
            table = u.radial_breakpoints(x, thetas, r_max)
            assert table.shape[0] == len(thetas)
            assert not np.any(np.isnan(table))
            for row, theta in zip(table, thetas):
                got = np.unique(row[np.isfinite(row)])
                ref = np.array(sorted(set(
                    reference_breakpoints(u, x, theta, r_max))))
                assert np.all((got > 0.0) & (got <= r_max))
                assert len(got) == len(ref), (x, theta, got, ref)
                np.testing.assert_allclose(got, ref, rtol=_RTOL.get(name, 0.0),
                                           atol=0.0)


@pytest.mark.parametrize("name, u, points, extra", CASES,
                         ids=[c[0] for c in CASES])
def test_one_row_equals_its_row_of_a_batch(name, u, points, extra):
    thetas = _directions(extra, n=257)
    for x in np.asarray(points, dtype=float):
        table = u.radial_breakpoints(x, thetas, 1e12)
        for i in (0, 5, 130, len(thetas) - 1):
            alone = u.radial_breakpoints(x, thetas[i:i + 1], 1e12)
            np.testing.assert_array_equal(
                np.sort(alone[0][np.isfinite(alone[0])]),
                np.sort(table[i][np.isfinite(table[i])]))


def test_fields_without_kinks_give_empty_rows():
    table = ConstantField(1.0).radial_breakpoints(
        np.zeros(2), _directions([], n=8), 1.0)
    assert table.shape == (8, 0)


def test_halfplane_composite_kinks_are_the_plane_closed_form():
    # theta . e2 and x . e2 are exact, so the kinks are |x_2 / theta_2|
    comp = CompositeField(HalfPlane([0.0, 1.0]), constant_data(1.0),
                          constant_data(0.0), 0.0)
    thetas = _directions([[1.0, 0.0]])
    x = np.array([0.4, 0.7])
    with np.errstate(divide="ignore"):
        want = np.abs(0.7 / thetas[:, 1])
    for r_max in (1e12, 1.5):
        table = comp.radial_breakpoints(x, thetas, r_max)
        assert table.shape[0] == len(thetas)
        np.testing.assert_array_equal(
            np.min(table, axis=1), np.where(want <= r_max, want, np.inf))


@pytest.mark.parametrize("dom", [Ball([0.1, 0.0], 1.0), HalfPlane([0.3, 1.0]),
                                 StarShaped([1.0, 0.0, 0.1])],
                         ids=["ball", "halfplane", "star"])
def test_psi_power_and_composite_share_the_domain_kinks(dom):
    psi = PsiPower(dom, 0.5)
    comp = CompositeField(dom, constant_data(1.0), constant_data(0.0), 0.0)
    thetas = _directions([[1.0, 0.0], [0.0, 1.0]])
    for x in map(np.array, ([0.2, 0.1], [1.3, -0.4], [0.0, 0.0])):
        for r_max in (1e12, 1.5):
            np.testing.assert_array_equal(
                psi.radial_breakpoints(x, thetas, r_max),
                comp.radial_breakpoints(x, thetas, r_max))
        # the distance to the boundary, outside too (0 would read as a kink
        # at x), and dist bit for bit inside
        r = comp.smooth_radius(x)
        assert r == psi.smooth_radius(x)
        if dom.contains(x):
            assert r == dom.dist(x)


def test_composite_field_is_inside_and_outside_on_the_split_rows():
    dom = Ball([0.2, -0.1], 0.8)
    inside = PsiPower(dom, 0.5)
    outside = CallableField(lambda p: np.cos(p[:, 0]) * p[:, 1])
    comp = CompositeField(dom, inside, outside, 0.0)
    rng = np.random.Generator(np.random.Philox(key=31))
    ring = rng.standard_normal((400, 2))
    ring /= np.linalg.norm(ring, axis=1)[:, None]
    inner = dom.center + 0.5 * ring * rng.random((400, 1))
    outer = dom.center + (1.0 + rng.random((400, 1))) * ring
    mixed = rng.standard_normal((1000, 2))
    for pts in (inner, outer, mixed, inner[:1], outer[:1]):
        mask = dom.contains(pts)
        want = np.empty(len(pts))
        want[mask] = inside(pts[mask])
        want[~mask] = outside(pts[~mask])
        np.testing.assert_array_equal(comp(pts), want)
    assert 0 < np.count_nonzero(dom.contains(mixed)) < len(mixed)
    for x in (dom.center, mixed[0], np.array([3.0, 0.0])):
        value = comp(x)
        assert isinstance(value, float)
        assert value == (inside if dom.contains(x) else outside)(x[None])[0]


def test_psi_power_rejects_a_domain_without_regularized_distance():
    with pytest.raises(ParameterError, match="domain"):
        PsiPower(unit_square(), 0.5)
