import numpy as np
import pytest

from fraclab._quad import bisect_edges, gl8_panels, graded_edges, periodic_edges
from fraclab.barriers import (ExteriorData, capped_distance_data,
                              constant_data, holder_point_singularity)
from fraclab.errors import DomainError, ParameterError, UnsupportedVariantError
from fraclab.extension import (DiskExtension, PointPowerDiskExtension,
                               _disk_extension, check_extension_bounds,
                               extended_field, hessian_fd)
from fraclab.fields import CompositeField
from fraclab.geometry import (Ball, Cone, HalfPlane, Polygon, StarShaped,
                              unit_square)
from fraclab.kernels import make_fractional_laplacian
from fraclab import nonlocal_op
from fraclab.nonlocal_op import QuadratureSpec, apply_L
from oracles import point_power_disk_extension
from test_fields import _ref_cone


def test_mean_value_constant_data():
    ball = Ball([0.0, 0.0], 1.0)
    g = constant_data(1.0)
    for x in ([0.0, 0.0], [0.5, 0.3], [0.9, 0.0]):
        assert _disk_extension(ball, g)(x) == pytest.approx(1.0, abs=1e-12)


def test_harmonic_polynomial_reproduced():
    # boundary trace of y1 extends to the harmonic function x1
    ball = Ball([0.0, 0.0], 1.0)
    g = ExteriorData(fn=lambda p: np.asarray(p, dtype=float)[..., 0],
                     alpha=0.99, C0=4.0, growth=1.0)
    for x in ([0.3, 0.2], [0.0, 0.95], [-0.7, 0.1], [0.0, 0.0]):
        assert _disk_extension(ball, g)(x) == pytest.approx(x[0], abs=1e-10)


def test_maximum_principle_random_data():
    ball = Ball([0.0, 0.0], 1.0)
    rng = np.random.Generator(np.random.Philox(key=12))
    coef = rng.standard_normal(4)
    g = ExteriorData(
        fn=lambda p: coef[0] + coef[1] * np.tanh(p[..., 0])
        + coef[2] * np.sin(3 * np.arctan2(p[..., 1], p[..., 0]))
        + coef[3] * np.cos(p[..., 1]),
        alpha=0.9, C0=10.0, growth=0.0)
    phis = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    tr = g(np.stack([np.cos(phis), np.sin(phis)], axis=1))
    for x in ([0.2, 0.4], [0.0, 0.0], [-0.8, 0.1]):
        v = _disk_extension(ball, g)(x)
        assert tr.min() - 1e-9 <= v <= tr.max() + 1e-9


def test_singular_datum_extension_decay():
    ball = Ball([0.0, 0.0], 1.0)
    g = holder_point_singularity(0.3, [1.0, 0.0])
    de = DiskExtension(ball, g)
    ds = np.geomspace(1e-3, 1e-1, 7)
    vals = np.array([de(np.array([1.0 - d, 0.0])) for d in ds])
    slopes = np.diff(np.log(vals)) / np.diff(np.log(ds))
    # harmonic extension of the alpha-singular trace decays like d^alpha
    assert np.all(np.abs(slopes - 0.3) < 0.05)


def test_hessian_blowup_rate():
    ball = Ball([0.0, 0.0], 1.0)
    alpha = 0.3
    g = holder_point_singularity(alpha, [1.0, 0.0])
    de = DiskExtension(ball, g)
    ds = np.geomspace(1e-3, 1e-1, 6)
    norm = []
    for d in ds:
        x = np.array([1.0 - d, 0.0])
        H = hessian_fd(de, x, d / 8.0)
        norm.append(np.linalg.norm(H, 2) * d ** (2.0 - alpha))
    norm = np.array(norm)
    assert np.max(norm) / np.min(norm) < 1.5


def _disk_probe_points():
    """Centre, depths 1e-12 to 0.99 toward the singular point (1, 0) and
    just off its angle, and points in general position."""
    pts = [[0.0, 0.0]]
    for d in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.99):
        for ang in (0.0, 1e-12, 1e-7, -1e-6, 0.3, 2.5):
            pts.append([(1.0 - d) * np.cos(ang), (1.0 - d) * np.sin(ang)])
    rng = np.random.Generator(np.random.Philox(key=5))
    pts.extend(rng.uniform(-0.7, 0.7, size=(20, 2)))
    return np.array(pts)


def test_disk_extension_batch_matches_rows():
    de = DiskExtension(Ball([0.0, 0.0], 1.0),
                       holder_point_singularity(0.3, [1.0, 0.0]))
    pts = _disk_probe_points()
    batch = de(pts)
    assert batch.shape == (len(pts),)
    rows = np.array([de(p) for p in pts])
    assert all(isinstance(de(p), float) for p in pts[:3])
    # bit for bit: zero-width padding panels leave a row's sum unchanged
    np.testing.assert_array_equal(batch, rows)


def _polar(de, x):
    """Depth-capped radius data of x: (r, delta, angle)."""
    R = de.dom.radius
    v = np.asarray(x, dtype=float) - de.dom.center
    r = np.sqrt(np.sum(v * v))
    return r, max(R - r, 1e-13 * R), np.arctan2(v[1], v[0]) if r > 0 else 0.0


def _gl8_poisson(de, edges, x):
    """The kernel-mass normalized GL8 Poisson integral on the given edges."""
    phis, w = gl8_panels(edges)
    z = de.dom.center + de.dom.radius * np.column_stack([np.cos(phis),
                                                         np.sin(phis)])
    kern = w / np.sum((z - x) ** 2, axis=1)
    return np.sum(kern * de.g(z)) / np.sum(kern)


def _shared_edges(de):
    n = len(de.singular_angles)
    if n == 0:
        return np.array([-np.pi, np.pi])
    return periodic_edges([de.singular_angles], [[1e-12] * n], 2.0 * np.pi)[0]


def _per_point_rule(de, x):
    """The disk extension's earlier rule, one point at a time: GL8 panels
    on one period centred on the point's angle, graded toward it down to a
    quarter of its depth and toward each singular angle down to 1e-12, with
    every edge merged into the previous kept one within 1e-13."""
    r, delta, phi = _polar(de, x)
    n = len(de.singular_angles)
    edges = periodic_edges([[phi, *de.singular_angles]],
                           [[0.25 * delta / de.dom.radius] + [1e-12] * n],
                           2.0 * np.pi)[0]
    return _gl8_poisson(de, edges, x)


def _own_edges(de, x):
    r, delta, phi = _polar(de, x)
    return periodic_edges([[phi]], [[0.25 * delta / de.dom.radius]],
                          2.0 * np.pi)[0]


def _shared_first_rule(de, x):
    """The documented rule, one point at a time: GL8 panels on the shared
    singular-angle edges together with the point's own edges, less those
    within 1e-13 of a shared edge."""
    shared = _shared_edges(de)
    own = (_own_edges(de, x) - shared[0]) % (2.0 * np.pi) + shared[0]
    gap = np.min(np.abs(own[:, None] - shared[None, :]), axis=1)
    return _gl8_poisson(de, np.sort(np.concatenate([shared, own[gap > 1e-13]])),
                        x)


def _near_tie(de, x):
    """Whether one of the point's own edges lies less than 1e-13 below a
    shared edge: the earlier rule then kept the point's edge and dropped the
    shared one, which may be the singular angle itself."""
    if not de.singular_angles:
        return False
    shared = _shared_edges(de)
    own = (_own_edges(de, x) - shared[0]) % (2.0 * np.pi) + shared[0]
    gap = shared[None, :] - own[:, None]
    return bool(np.any((gap > 0.0) & (gap < 1e-13)))


def _refined_rule(de, x):
    """A much finer rule: edges graded to 1/64 of the depth around the
    point's angle and to 1e-16 around each singular angle, all kept (no
    merging), and every panel bisected four times."""
    r, delta, phi = _polar(de, x)
    e = [graded_edges(phi, delta / (64.0 * de.dom.radius), np.pi)]
    e += [(graded_edges(a, 1e-16, np.pi) - phi + np.pi) % (2.0 * np.pi)
          + phi - np.pi for a in de.singular_angles]
    e = np.unique(np.concatenate(e))
    for _ in range(4):
        e = bisect_edges(e)
    return _gl8_poisson(de, e, x)


def _two_singular_angles():
    p, q = np.array([1.0, 0.0]), np.array([np.cos(2.5), np.sin(2.5)])
    return ExteriorData(
        fn=lambda y: (np.linalg.norm(y - p, axis=-1) ** 0.3
                      + 0.5 * np.linalg.norm(y - q, axis=-1) ** 0.6),
        alpha=0.3, C0=4.0, singular_points=(tuple(p), tuple(q)))


_DISK_DATA = {
    "point_singularity": lambda: holder_point_singularity(0.3, [1.0, 0.0]),
    "two_singular_angles": _two_singular_angles,
    "constant": lambda: constant_data(2.0),
    "capped_distance": lambda: capped_distance_data([2.0, 0.0], 1.5),
    "singularity_off_circle": lambda: holder_point_singularity(0.3, [1.5, 0.5]),
}


def _disk_random_points():
    """The probe points and 330 random ones at depths 1e-12 to 0.99: a
    third within 1e-12 of the angle 0, a third within 1e-12 of pi."""
    rng = np.random.Generator(np.random.Philox(key=8))
    n = 330
    depth = 10.0 ** rng.uniform(-12.0, np.log10(0.99), n)
    angle = rng.uniform(-np.pi, np.pi, n)
    angle[:110] = rng.uniform(-1e-12, 1e-12, 110)
    angle[110:220] = np.pi + rng.uniform(-1e-12, 1e-12, 110)
    return np.concatenate([
        _disk_probe_points(),
        (1.0 - depth)[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])])


@pytest.mark.parametrize("name", sorted(_DISK_DATA))
def test_disk_extension_matches_one_row_rule(name):
    de = DiskExtension(Ball([0.0, 0.0], 1.0), _DISK_DATA[name]())
    pts = _disk_random_points()
    np.testing.assert_allclose(de(pts), [_shared_first_rule(de, p) for p in pts],
                               rtol=1e-13, atol=0.0)


def test_disk_extension_constant_datum_is_exact():
    # the kernel mass and the integral take one reduction, so a datum that
    # is a power of two scales every term exactly and the ratio is exact
    de = DiskExtension(Ball([0.0, 0.0], 1.0), constant_data(2.0))
    np.testing.assert_array_equal(de(_disk_random_points()), 2.0)


@pytest.mark.parametrize("name", sorted(_DISK_DATA))
def test_disk_extension_matches_earlier_rule(name):
    de = DiskExtension(Ball([0.0, 0.0], 1.0), _DISK_DATA[name]())
    pts = _disk_random_points()
    new = de(pts)
    old = np.array([_per_point_rule(de, p) for p in pts])
    tie = np.array([_near_tie(de, p) for p in pts])
    np.testing.assert_allclose(new[~tie], old[~tie], rtol=1e-13, atol=0.0)
    # at a near tie the two rules differ by one edge moved by < 1e-13; near
    # a singular angle either may be the more accurate, and the worst error
    # of the new rule against a much finer one stays within twice the old
    if tie.any():
        ref = np.array([_refined_rule(de, p) for p in pts[tie]])
        assert (np.max(np.abs(new[tie] - ref) / np.abs(ref))
                <= 2.0 * np.max(np.abs(old[tie] - ref) / np.abs(ref)))


def test_extension_pinned_values():
    # values of the per-point evaluation that batching replaced; the rule is
    # unchanged, so they agree to rounding
    de = DiskExtension(Ball([0.0, 0.0], 1.0),
                       holder_point_singularity(0.3, [1.0, 0.0]))
    r = 1.0 - 1e-6
    disk_pts = np.array([[1.0 - 1e-12, 0.0],
                         [r * np.cos(1e-7), r * np.sin(1e-7)], [-0.2, 0.45]])
    np.testing.assert_allclose(
        de(disk_pts), [0.00028192413350796013, 0.017806059908959938,
                       1.0956650746843293], rtol=1e-12, atol=0.0)


def test_extension_batch_larger_than_chunk():
    # a few hundred disk points hold several chunks of quadrature nodes
    de = DiskExtension(Ball([0.0, 0.0], 1.0),
                       holder_point_singularity(0.3, [1.0, 0.0]))
    rng = np.random.Generator(np.random.Philox(key=7))
    r = 1.0 - 10.0 ** rng.uniform(-9.0, 0.0, 300)
    phi = rng.uniform(-np.pi, np.pi, 300)
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    small = np.concatenate([de(pts[i:i + 4]) for i in range(0, len(pts), 4)])
    np.testing.assert_array_equal(de(pts), small)


def test_extension_batch_rejects_exterior_point():
    g = constant_data(1.0)
    de = DiskExtension(Ball([0.0, 0.0], 1.0), g)
    with pytest.raises(DomainError):
        de(np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]))


@pytest.mark.parametrize("g", [
    holder_point_singularity(0.3, [1.0, 0.0]),      # the closed form
    capped_distance_data([2.0, 0.0], 3.0),          # the quadrature
], ids=["closed_form", "quadrature"])
def test_disk_fields_refuse_a_malformed_point(g):
    # a third coordinate was dropped without a word, a 1-vector raised a
    # bare IndexError or a broadcast ValueError, and NaN came back as nan
    ext = extended_field(Ball([0.0, 0.0], 1.0), g).inside
    for x, named in (([0.1, 0.0, 0.0], "[0.1, 0.0, 0.0]"), ([0.1], "[0.1]"),
                     (0.1, "not 0.1"), (np.zeros((2, 3)), "shape (2, 3)"),
                     (np.zeros((1, 2, 2)), "shape (1, 2, 2)"),
                     ([np.nan, 0.0], "[nan, 0.0]"),
                     ([[0.1, 0.0], [0.2, np.inf]], "[0.2, inf]")):
        with pytest.raises(ParameterError, match="extension point") as info:
            ext(x)
        assert named in str(info.value)
    assert ext(np.empty((0, 2))).shape == (0,)


# ---------------------------------------------------------------------------
# the closed form for the point-singularity datum

EPS = np.finfo(float).eps
# (centre, radius, C0) of the swept disks, and the anchor angles on each
POINT_POWER_DISKS = (((0.0, 0.0), 1.0, 1.0), ((0.3, -0.7), 2.5, 1.7))
POINT_POWER_ANCHORS = (0.0, 2.2)


def _near_anchor_bound(R, x, z0):
    """Relative accuracy allowed at x: a floor, plus 4 times the relative
    precision to which |x - z0| is known from coordinates of size R (no
    method resolves the datum near its anchor better)."""
    return 1e-13 + 4.0 * EPS * R / np.hypot(*(x - z0).T)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.8])
def test_point_power_closed_form_matches_oracle_and_quadrature(alpha):
    angles = np.linspace(0.0, np.pi, 8)       # from the anchor
    for c, R, C0 in POINT_POWER_DISKS:
        c = np.array(c)
        ball = Ball(c, R)
        for phi0 in POINT_POWER_ANCHORS:
            z0 = c + R * np.array([np.cos(phi0), np.sin(phi0)])
            g = holder_point_singularity(alpha, z0, C0)
            ext = extended_field(ball, g).inside
            assert isinstance(ext, PointPowerDiskExtension)

            def ray_points(depths):
                return np.array([
                    c + R * (1.0 - d) * np.array([np.cos(phi0 + t),
                                                  np.sin(phi0 + t)])
                    for d in depths for t in angles])

            # the series oracle, where it converges
            x = ray_points((0.5, 0.1, 0.02))
            ref = point_power_disk_extension(alpha, C0, c, R, z0, x)
            assert np.all(np.abs(ext(x) / ref - 1.0)
                          <= _near_anchor_bound(R, x, z0))
            # the Poisson quadrature, down to depth 1e-9
            x = ray_points((1e-1, 1e-3, 1e-5, 1e-7, 1e-9))
            ref = DiskExtension(ball, g)(x)
            assert np.all(np.abs(ext(x) / ref - 1.0)
                          <= _near_anchor_bound(R, x, z0))
            # the centre holds the datum's mean over the circle
            centre = C0 * R ** alpha * point_power_disk_extension(
                alpha, 1.0, [0.0, 0.0], 1.0, [1.0, 0.0], [[0.0, 0.0]])[0]
            assert ext(c) == pytest.approx(centre, rel=1e-13, abs=0.0)


def test_point_power_closed_form_rows_are_independent():
    ext = extended_field(Ball([0.0, 0.0], 1.0),
                         holder_point_singularity(0.3, [1.0, 0.0])).inside
    pts = _disk_probe_points()
    batch = ext(pts)
    assert np.array_equal(batch, [ext(p) for p in pts])
    assert all(isinstance(ext(p), float) for p in pts[:3])


def test_point_power_closed_form_rejects_points_off_the_open_disk():
    g = holder_point_singularity(0.3, [0.0, 2.0])
    ext = extended_field(Ball([0.0, 1.0], 1.0), g).inside
    assert isinstance(ext, PointPowerDiskExtension)
    for x in ([0.0, 2.0], [1.0, 1.0], [3.0, 0.0]):
        with pytest.raises(DomainError):
            ext(x)
    with pytest.raises(DomainError):
        ext(np.array([[0.0, 1.0], [0.0, 2.0]]))


@pytest.mark.parametrize("g", [
    holder_point_singularity(0.3, [1.0 + 1e-6, 0.0]),   # anchor off the circle
    holder_point_singularity(0.3, [0.5, 0.0]),          # anchor inside
    holder_point_singularity(1.0, [1.0, 0.0]),          # alpha = 1
    capped_distance_data([2.0, 0.0], 3.0),              # no declaration
    lambda p: np.hypot(p[..., 0] - 1.0, p[..., 1]) ** 0.3,  # bare callable
], ids=["off_circle", "inside", "alpha_1", "undeclared", "bare_callable"])
def test_other_data_take_the_disk_quadrature(g):
    ball = Ball([0.0, 0.0], 1.0)
    assert isinstance(_disk_extension(ball, g), DiskExtension)


def test_composite_field_constant_data():
    ball = Ball([0.0, 0.0], 1.0)
    g = constant_data(2.5)
    comp = extended_field(ball, g)
    K = make_fractional_laplacian(0.5, 2)
    # adaptivity would chase the ~1e-12 extension noise forever on constant
    # data; cap the budget and check the value is zero at that noise scale
    q = QuadratureSpec(target_rel_tol=1e-3, max_angular_panels=4,
                       max_radial_panels=24, n_jacobi=12)
    ov = apply_L(K, comp, np.array([0.6, 0.0]), q=q)
    assert abs(ov.value) <= max(1e-8, 10 * ov.err_estimate)


def test_composite_field_operator_at_an_exterior_point(monkeypatch):
    """Outside the domain the near ball reaches to the boundary, as inside;
    the value does not depend on how the near/far split is drawn."""
    K = make_fractional_laplacian(0.5, 2)
    comp = extended_field(Ball([0.0, 0.0], 1.0),
                          holder_point_singularity(0.3, [1.0, 0.0]))
    x = np.array([1.5, 0.0])
    assert comp.smooth_radius(x) == 0.5
    q = QuadratureSpec(target_rel_tol=1e-5)
    base = apply_L(K, comp, x, q=q)
    monkeypatch.setattr(nonlocal_op, "_NEAR_FRACTION", 0.25)
    split = apply_L(K, comp, x, q=q)
    assert base.tol_ok and split.tol_ok
    assert base.near_part != split.near_part
    assert abs(base.value - split.value) <= base.err_estimate + split.err_estimate


def test_composite_field_breakpoints_on_star_and_cone():
    star = StarShaped([1.0, 0.0, 0.1])
    comp = CompositeField(star, constant_data(1.0), constant_data(0.0), 0.0)
    # the ray through the origin along e1 meets the boundary at r(0) = r(pi)
    br = comp.radial_breakpoints(np.zeros(2), np.array([[1.0, 0.0]]), 3.0)
    assert br.shape[0] == 1 and np.sum(np.isfinite(br)) >= 1
    np.testing.assert_allclose(br[np.isfinite(br)], 1.1, rtol=0.0, atol=1e-12)
    # the cone's kinks are its closed-form edge crossings
    dom = Cone([0.0, 1.0], 0.5)
    cone = CompositeField(dom, constant_data(1.0), constant_data(0.0), 0.0)
    thetas = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
    # the line through (0.3, -0.5) along e1 meets both edges; the one
    # through (0, -0.2) along e2 runs through the vertex
    for x in map(np.array, ([0.3, -0.5], [0.0, -0.2], [0.0, 1.0])):
        br = cone.radial_breakpoints(x, thetas, 3.0)
        assert br.shape[0] == len(thetas)
        for row, theta in zip(br, thetas):
            np.testing.assert_array_equal(np.unique(row[np.isfinite(row)]),
                                          _ref_cone(dom, x, theta, 3.0))
    assert len(_ref_cone(dom, np.array([0.3, -0.5]), thetas[0], 3.0)) == 2
    assert _ref_cone(dom, np.array([0.0, -0.2]), thetas[2], 3.0) == (0.2,)


def bare_datum(p):
    return np.ones(np.asarray(p).shape[0])


def test_extension_refuses_a_datum_without_growth_where_it_needs_one():
    # a polygon is refused whatever its datum
    with pytest.raises(UnsupportedVariantError, match="not Polygon"):
        extended_field(unit_square(), bare_datum)
    # the disk's Poisson integral reads no growth, its extended field does
    disk = _disk_extension(Ball([0.0, 0.0], 1.0), bare_datum)
    assert disk([0.3, 0.4]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError, match="declares no growth"):
        extended_field(Ball([0.0, 0.0], 1.0), bare_datum)


def test_disk_extensions_refuse_balls_not_in_the_plane():
    for ball in (Ball([0.0], 1.0), Ball([0.0, 0.0, 0.0], 1.0)):
        with pytest.raises(UnsupportedVariantError, match="dim-2"):
            extended_field(ball, constant_data(1.0))


def test_extended_field_rejects_polygons():
    with pytest.raises(UnsupportedVariantError, match="Polygon"):
        extended_field(unit_square(), constant_data(1.0))


# a non-convex polygon: the vertex (1, 1) is reflex
L_SHAPE = Polygon([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                   [1.0, 2.0], [0.0, 2.0]])


def test_extension_rejects_exterior_and_unsupported():
    ball = Ball([0.0, 0.0], 1.0)
    g = constant_data(1.0)
    with pytest.raises(DomainError):
        extended_field(ball, g).inside([2.0, 0.0])
    # the half plane too: no command, criterion or workload extends into it
    for dom in (HalfPlane([0.0, 1.0]), Cone([0, 1], 1.0),
                StarShaped([1.0, 0.0, 0.1]), unit_square(), L_SHAPE):
        for call in (extended_field, check_extension_bounds):
            with pytest.raises(UnsupportedVariantError,
                               match=f"^extended_field supports Ball, not "
                                     f"{type(dom).__name__}$"):
                call(dom, g)


def test_check_extension_bounds_constant_is_flat_zero():
    ball = Ball([0.0, 0.0], 1.0)
    g = constant_data(1.0)
    rep = check_extension_bounds(ball, g)
    assert np.max(np.abs(rep.hess_norm)) < 1e-6
    assert np.max(np.abs(rep.op_value)) < 1e-5


def test_check_extension_bounds_lipschitz_datum():
    ball = Ball([0.0, 0.0], 1.0)
    g = capped_distance_data([2.0, 0.0], 3.0, alpha=0.9)
    rep = check_extension_bounds(ball, g)
    # smooth datum nearby: normalized quantities stay bounded
    assert np.isfinite(rep.hess_sup) and np.isfinite(rep.op_sup)
    assert rep.hess_sup < 50.0
