import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fraclab.barriers import holder_point_singularity
from fraclab.errors import DomainError, ParameterError
from fraclab.extension import HalfPlaneExtension
from fraclab.fields import AffineField
from fraclab.geometry import (Ball, Cone, HalfPlane, Polygon, StarShaped,
                              domain_from_config, domain_to_config, row_dot,
                              row_norm2, unit_square)


def test_ball_basics():
    b = Ball([0.0, 0.0], 1.0)
    assert b.contains([0.5, 0.0])
    assert not b.contains([1.5, 0.0])
    assert b.dist([0.25, 0.0]) == pytest.approx(0.75)
    assert b.dist([2.0, 0.0]) == 0.0
    z0, n = b.project([0.25, 0.0])
    np.testing.assert_allclose(z0, [1.0, 0.0])
    np.testing.assert_allclose(n, [-1.0, 0.0])


def test_halfplane_basics():
    h = HalfPlane([0.0, 1.0])
    assert not h.contains([3.0, -0.1])
    assert h.dist([7.0, 0.3]) == pytest.approx(0.3)
    z0, n = h.project([7.0, 0.3])
    np.testing.assert_allclose(z0, [7.0, 0.0])
    np.testing.assert_allclose(n, [0.0, 1.0])


def test_cone_membership_algebra():
    c = Cone([0.0, 1.0], 1.0)
    assert c.contains([1.0, 0.0])  # e.x/|x| = 0 > -eta
    rng = np.random.Generator(np.random.Philox(key=3))
    pts = rng.standard_normal((400, 2)) * 3.0
    r = np.linalg.norm(pts, axis=1)
    keep = r > 1e-9
    pts, r = pts[keep], r[keep]
    cos = pts[:, 1] / r
    lhs = cos + 1.0 * (1.0 - cos ** 2)
    np.testing.assert_array_equal(np.asarray(c.contains(pts)), lhs > 0.0)


def test_cone_dist_and_project():
    c = Cone([0.0, 1.0], 1.0)
    x = np.array([0.0, 2.0])
    d = c.dist(x)
    z0, n = c.project(x)
    assert d > 0
    assert np.linalg.norm(x - z0) == pytest.approx(d, rel=1e-12)
    assert c.psi_value(z0) == pytest.approx(0.0, abs=1e-12)


def test_polygon_square():
    sq = unit_square()
    assert sq.dist([0.5, 0.5]) == pytest.approx(0.5)
    assert sq.contains([0.5, 0.5])
    assert not sq.contains([1.5, 0.5])
    z0, n = sq.project([0.5, 0.2])
    np.testing.assert_allclose(z0, [0.5, 0.0])
    np.testing.assert_allclose(n, [0.0, 1.0])
    assert sq.diameter == pytest.approx(np.sqrt(2.0))


def test_polygon_corner_bisector():
    # reentrant corner of an L-shape: points in its wedge project onto the
    # vertex and the normal is the bisector pointing back at the point
    L = Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
    x = np.array([0.8, 0.8])
    z0, n = L.project(x)
    np.testing.assert_allclose(z0, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(n, [-1.0, -1.0] / np.sqrt(2.0), rtol=1e-9)


def test_project_rejects_exterior():
    for dom in (Ball([0, 0], 1.0), unit_square()):
        with pytest.raises(DomainError):
            dom.project([5.0, 5.0])
    with pytest.raises(DomainError):
        HalfPlane([0, 1]).project([5.0, -5.0])


def test_projection_consistency_random():
    rng = np.random.Generator(np.random.Philox(key=11))
    doms = [Ball([0.2, -0.1], 1.3), unit_square(),
            StarShaped([1.0, 0.0, 0.12], [0.0, 0.07])]
    for dom in doms:
        n_done = 0
        while n_done < 60:
            p = rng.random(2) * 3.0 - 1.5
            if not dom.contains(p):
                continue
            n_done += 1
            d = float(dom.dist(p))
            z0, _ = dom.project(p)
            assert abs(np.linalg.norm(p - z0) - d) <= 1e-10 * dom.diameter


def test_star_reduces_to_ball():
    star = StarShaped([1.0])
    assert star.dist([0.9, 0.0]) == pytest.approx(0.1, abs=1e-10)
    assert star.dist([0.3, 0.4]) == pytest.approx(0.5, abs=1e-10)


def test_regularized_distance_ball_closed_form():
    b = Ball([0.0, 0.0], 1.0)
    x = np.array([0.5, 0.0])
    assert b.psi_value(x) == pytest.approx(0.375)
    # psi = (1 - |x|^2)/2: gradient -x, Hessian -I
    h = 1e-3
    fd_grad = [(b.psi_value(x + e) - b.psi_value(x - e)) / (2 * h)
               for e in h * np.eye(2)]
    np.testing.assert_allclose(fd_grad, [-0.5, 0.0], atol=1e-8)
    np.testing.assert_allclose(_fd_hessian(b.psi_value, x, h), -np.eye(2),
                               atol=1e-6)
    # psi/d = (1+|x|)/2 near the boundary
    d = 0.01
    assert 0.5 <= b.psi_value([0.99, 0.0]) / d <= 1.0
    assert b.psi_value([0.99, 0.0]) / d == pytest.approx((1 + 0.99) / 2)


def test_regularized_distance_halfplane():
    h = HalfPlane([0.0, 1.0])
    x = np.array([2.0, 0.3])
    assert h.psi_value(x) == pytest.approx(0.3)
    np.testing.assert_allclose(_fd_hessian(h.psi_value, x, 1e-3), 0.0,
                               atol=1e-6)


@pytest.mark.parametrize("dom", [
    Ball([0.0, 0.0], 1.0),
    StarShaped([1.0, 0.0, 0.1], [0.0, 0.05]),
])
def test_psi_comparable_to_distance(dom):
    rng = np.random.Generator(np.random.Philox(key=5))
    # the first 10,000 interior points of a stream of uniform candidates
    p = rng.random((30000, 2)) * 2.4 - 1.2
    p = p[dom.contains(p)][:10000]
    assert len(p) == 10000
    d = np.asarray(dom.dist(p))
    keep = d > 1e-12
    ratios = np.asarray(dom.psi_value(p[keep])) / d[keep]
    C = max(np.max(ratios), 1.0 / np.min(ratios))
    assert np.all(ratios > 0)
    assert C < 10.0, f"psi/d spread too large: C = {C}"


def _fd_hessian(f, x, h):
    """Central-difference Hessian of a scalar function at x with step h."""
    H = np.empty((len(x), len(x)))
    for i in range(len(x)):
        for j in range(len(x)):
            ei = np.zeros(len(x)); ei[i] = h
            ej = np.zeros(len(x)); ej[j] = h
            H[i, j] = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej)
                       + f(x - ei - ej)) / (4 * h * h)
    return H


def test_star_psi_is_c2_across_its_flattening_ramp():
    # psi = h(r(theta_x) - |x|) with h flattened between r1 = r_min/3 and
    # r2 = 2 r_min/3; where psi is C^2 the difference Hessians at two steps
    # converge to the same matrix (entries up to 5.3 here).  The last two
    # points lie 1.5e-3 inside the ramp's ends, so the larger step straddles
    # an end and the smaller does not: a jump of D^2 psi there (a ramp
    # that is only C^1) makes the two disagree by about 0.5
    dom = StarShaped([1.0, 0.0, 0.1], [0.0, 0.05])
    r1, r2 = dom.r_min / 3.0, 2.0 * dom.r_min / 3.0
    u = np.array([np.cos(0.3), np.sin(0.3)])
    points = [[0.55, 0.2], [0.8, 0.3], [0.0, 0.5], [0.3, 0.1],
              (dom.radial(0.3) - (r1 + 1.5e-3)) * u,
              (dom.radial(0.3) - (r2 - 1.5e-3)) * u]
    for x in points:
        x = np.asarray(x, dtype=float)
        coarse = _fd_hessian(dom.psi_value, x, 2e-3)
        fine = _fd_hessian(dom.psi_value, x, 1e-3)
        assert np.max(np.abs(coarse - fine)) <= 5e-3, x


def test_domain_config_round_trip():
    for dom in (Ball([0.1, 0.2], 1.5), HalfPlane([0.0, 1.0]),
                Cone([0.0, 1.0], 0.7), unit_square(),
                StarShaped([1.0, 0.0, 0.1], [0.0, 0.05])):
        cfg = domain_to_config(dom)
        dom2 = domain_from_config(cfg)
        assert type(dom2) is type(dom)
        assert domain_to_config(dom2) == cfg


def test_degenerate_domains_rejected():
    with pytest.raises(ParameterError):
        Ball([0.0, 0.0], 0.0)
    with pytest.raises(ParameterError):
        Cone([0.0, 1.0], 0.0)
    with pytest.raises(ParameterError):
        Polygon([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(ParameterError):
        StarShaped([0.1, 0.5])  # r(theta) dips negative


# ---------------------------------------------------------------------------
# properties of the distance, containment and projection queries

DOMAINS = {
    "ball": Ball([0.2, -0.1], 1.3),
    "square": unit_square(),
    "L": Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]),
    "star": StarShaped([1.0, 0.0, 0.1]),
    "star2": StarShaped([1.0, 0.0, 0.12], [0.0, 0.07]),
}
UNBOUNDED = {"halfplane": HalfPlane([0.3, 1.0]), "cone": Cone([0.0, 1.0], 0.7)}


def _boundary_samples(dom, n=4096):
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    if isinstance(dom, Ball):
        return dom.center + dom.radius * np.stack([np.cos(th), np.sin(th)],
                                                  axis=1)
    if isinstance(dom, Polygon):
        v = dom.vertices
        t = np.linspace(0.0, 1.0, n // len(v), endpoint=False)
        edge = np.roll(v, -1, axis=0) - v
        return (v[:, None, :] + t[None, :, None] * edge[:, None, :]).reshape(-1, 2)
    return dom.boundary_point(th)


def _boundary_residual(dom, z):
    """Zero exactly on the boundary, of the order of the distance to it."""
    if isinstance(dom, Ball):
        return np.linalg.norm(z - dom.center, axis=1) - dom.radius
    if isinstance(dom, Polygon):
        return dom.signed_dist(z)
    return np.linalg.norm(z, axis=1) - dom.radial(np.arctan2(z[:, 1], z[:, 0]))


@st.composite
def _points(draw, dom):
    """Up to 24 points: anywhere around the domain, or within 1e-12 to 1 of
    a boundary sample on either side."""
    samples = _boundary_samples(dom) if dom.bounded else np.zeros((1, 2))
    anywhere = st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5))
    near = st.tuples(st.integers(0, len(samples) - 1), st.floats(-12.0, 0.0),
                     st.floats(0.0, 2.0 * np.pi)).map(
        lambda a: samples[a[0]] + 10.0 ** a[1] * np.array([np.cos(a[2]),
                                                           np.sin(a[2])]))
    pts = draw(st.lists(st.one_of(anywhere, near), min_size=1, max_size=24))
    return np.array([np.asarray(p, dtype=float) for p in pts])


@pytest.mark.parametrize("name", [*DOMAINS, *UNBOUNDED])
@given(data=st.data())
def test_contains_is_positive_dist(name, data):
    dom = {**DOMAINS, **UNBOUNDED}[name]
    pts = data.draw(_points(dom))
    np.testing.assert_array_equal(np.asarray(dom.contains(pts)),
                                  np.asarray(dom.dist(pts)) > 0.0)


@pytest.mark.parametrize("name", DOMAINS)
@given(data=st.data())
def test_dist_at_most_distance_to_boundary_samples(name, data):
    dom = DOMAINS[name]
    pts = data.draw(_points(dom))
    samples = _boundary_samples(dom)
    nearest = np.min(np.linalg.norm(pts[:, None, :] - samples[None, :, :],
                                    axis=-1), axis=1)
    assert np.all(np.asarray(dom.dist(pts)) <= nearest + 1e-12)


@pytest.mark.parametrize("name", DOMAINS)
@given(data=st.data())
def test_project_lands_on_boundary_at_dist(name, data):
    dom = DOMAINS[name]
    pts = data.draw(_points(dom))
    pts = pts[np.asarray(dom.contains(pts))]
    assume(len(pts) > 0)
    z0, normal = dom.project(pts)
    assert np.all(np.abs(_boundary_residual(dom, z0)) <= 1e-12)
    np.testing.assert_allclose(np.linalg.norm(pts - z0, axis=1),
                               dom.dist(pts), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(normal, axis=1), 1.0, atol=1e-12)
    # a batch projects each point exactly as a call with that point alone
    for p, z, n in zip(pts, z0, normal):
        z1, n1 = dom.project(p)
        assert np.array_equal(z1, z) and np.array_equal(n1, n)


SIGNED = {**DOMAINS, **UNBOUNDED}


@pytest.mark.parametrize("name", SIGNED)
@given(data=st.data())
def test_signed_dist_matches_dist_inside_and_flips_outside(name, data):
    dom = SIGNED[name]
    pts = data.draw(_points(dom))
    sd = np.asarray(dom.signed_dist(pts))
    inside = np.asarray(dom.contains(pts))
    assert np.all((sd > 0.0) == inside)
    np.testing.assert_allclose(sd[inside], np.asarray(dom.dist(pts))[inside],
                               rtol=0.0, atol=1e-12)
    if dom.bounded:
        samples = _boundary_samples(dom)
        nearest = np.min(np.linalg.norm(pts[:, None, :] - samples[None, :, :],
                                        axis=-1), axis=1)
        assert np.all(np.abs(sd) <= nearest + 1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_row_norm2_is_the_numpy_sum_and_norm_bit_for_bit(dim):
    # coordinates of scales 1e-8 to 1e8 within a row, so the order of the
    # sum matters (in dim 3, v0^2 + (v1^2 + v2^2) differs on a share of
    # these rows), and zero rows
    rng = np.random.Generator(np.random.Philox(key=20 + dim))
    v = (rng.standard_normal((10000, dim))
         * 10.0 ** rng.uniform(-8.0, 8.0, (10000, dim)))
    v[::500] = 0.0
    n2 = row_norm2(v)
    np.testing.assert_array_equal(n2, np.sum(v * v, axis=-1))
    np.testing.assert_array_equal(np.sqrt(n2), np.linalg.norm(v, axis=-1))
    np.testing.assert_array_equal(row_norm2(v[:1]), np.sum(v[:1] ** 2, axis=-1))


def test_ball_and_cone_side_functions_are_their_numpy_forms():
    rng = np.random.Generator(np.random.Philox(key=23))
    for center, radius in (([0.3, -0.2], 0.7), ([0.1, 0.2, -0.4], 1.3)):
        ball = Ball(center, radius)
        pts = rng.standard_normal((4000, ball.dim)) * 1.5
        pts[0] = ball.center
        v = pts - ball.center
        r = np.linalg.norm(v, axis=-1)
        np.testing.assert_array_equal(
            ball.psi_value(pts),
            (radius ** 2 - np.sum(v * v, axis=-1)) / (2.0 * radius))
        np.testing.assert_array_equal(ball.contains(pts), r < radius)
        np.testing.assert_array_equal(ball.signed_dist(pts), radius - r)
        assert ball.signed_dist(pts[1]) == radius - r[1]
        inside = r < radius
        z0, _ = ball.project(pts[inside])
        rin = r[inside]
        np.testing.assert_array_equal(
            z0[1:], ball.center + radius * (v[inside][1:] / rin[1:, None]))
    for axis, eta in (([0.0, 1.0], 1.0), ([0.6, -0.8], 0.4)):
        cone = Cone(axis, eta)
        pts = rng.standard_normal((4000, 2)) * 2.0
        pts[0] = 0.0
        # the vertex's 0/0 stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cone.psi_value(pts)
            assert cone.psi_value(pts[0]) == 0.0
        r = np.linalg.norm(pts, axis=-1)
        p = row_dot(pts, cone.axis)
        with np.errstate(invalid="ignore", divide="ignore"):
            want = np.where(r == 0.0, 0.0, p + eta * (r - p ** 2 / r))
        np.testing.assert_array_equal(got, want)


def test_cone_and_halfplane_rows_do_not_depend_on_the_batch():
    # a point alone gives what its row of a batch gives: the row dots are
    # elementwise, where a matrix-vector product rounds a row by its place
    # in the batch (the cone's dist did so on 235 of these 2,707 interior
    # points; with ``pts @ v`` the tilted half-plane's psi_value did so on
    # 1,327 of these 4,000 points, its dist on 677, the tilted cone's
    # psi_value on 807 and the affine field on 1,055)
    pts = np.random.Generator(np.random.Philox(key=14)).standard_normal(
        (4000, 2)) * 2.0
    cone, hp = UNBOUNDED["cone"], UNBOUNDED["halfplane"]
    tilted = Cone([0.6, 0.8], 0.7)
    for query in (cone.dist, cone.signed_dist, hp.contains, hp.dist,
                  hp.psi_value, tilted.contains, tilted.psi_value,
                  AffineField([0.3, 1.1], 0.2)):
        batch = query(pts)
        np.testing.assert_array_equal([query(p) for p in pts], batch)
    # the half-plane's harmonic extension (a row dot for the height and one
    # for the tangential coordinate, then a panel sum per point; 149 of
    # these 600 points differed with the row dots and padded chunks)
    ext = HalfPlaneExtension(hp, holder_point_singularity(0.3, [0.0, 0.0]))
    inside = pts[hp.contains(pts)][:600]
    np.testing.assert_array_equal([ext(p) for p in inside], ext(inside))
    for dom in UNBOUNDED.values():
        inside = pts[np.asarray(dom.contains(pts))]
        z0, normal = dom.project(inside)
        assert z0.shape == normal.shape == inside.shape
        for p, z, n in zip(inside, z0, normal):
            z1, n1 = dom.project(p)
            assert np.array_equal(z1, z) and np.array_equal(n1, n)
        # one exterior row rejects the batch
        with pytest.raises(DomainError):
            dom.project(pts)


# ---------------------------------------------------------------------------
# the certified distance bound walk-on-spheres steps on

def _regular_polygon(m, turn):
    th = turn + 2.0 * np.pi * np.arange(m) / m
    return Polygon(np.stack([np.cos(th), np.sin(th)], axis=1))


BOUNDED_BY = {"star": DOMAINS["star"], "star2": DOMAINS["star2"],
              "disc": StarShaped([1.0]), "square": DOMAINS["square"],
              "pentagon": _regular_polygon(5, 0.3)}
# the edge-line closed form and the edge pass round differently: on the
# unit square they agree bit for bit, elsewhere to a few ulps of the
# coordinates (at most 2.7e-16 on 400k points of the unit pentagon)
ROUNDING = {"pentagon": 4.0 * np.finfo(float).eps}


@pytest.mark.parametrize("name", BOUNDED_BY)
@given(data=st.data(), exact_below=st.floats(1e-12, 1.0))
def test_dist_bound_is_a_certified_lower_bound(name, data, exact_below):
    dom = BOUNDED_BY[name]
    slack = ROUNDING.get(name, 0.0)
    pts = data.draw(_points(dom))
    d = np.asarray(dom.dist(pts))
    b = np.asarray(dom.dist_bound(pts))
    assert np.all(b >= 0.0) and np.all(b <= d * (1.0 + 1e-10) + slack)
    samples = _boundary_samples(dom)
    nearest = np.min(np.linalg.norm(pts[:, None, :] - samples[None, :, :],
                                    axis=-1), axis=1)
    assert np.all(b <= nearest + slack)
    np.testing.assert_array_equal(b > 0.0, np.asarray(dom.contains(pts)))
    # exact (bit for bit) wherever the bound falls below exact_below
    be = np.asarray(dom.dist_bound(pts, exact_below))
    low = b < exact_below
    np.testing.assert_array_equal(be[low], d[low])
    np.testing.assert_array_equal(be[~low], b[~low])


@given(data=st.data())
def test_dist_bound_is_tight_near_the_boundary(data):
    dom = DOMAINS["star"]
    pts = data.draw(_points(dom))
    d = np.asarray(dom.dist(pts))
    b = np.asarray(dom.dist_bound(pts))
    near = d < 0.05
    # less the bound's absolute rounding slack, a few 1e-15 here
    assert np.all(b[near] >= 0.9 * d[near] - 1e-14)


@pytest.mark.parametrize("name", ["ball", "square", "L"])
def test_dist_bound_is_dist_on_balls_and_polygons(name):
    dom = DOMAINS[name]
    pts = np.random.Generator(np.random.Philox(key=12)).random((500, 2)) * 3 - 1
    np.testing.assert_array_equal(dom.dist_bound(pts, 1e-3), dom.dist(pts))
    assert dom.dist_bound(pts[0]) == dom.dist(pts[0])


# a convex quadrilateral with no edge along an axis
TILTED_QUAD = Polygon([[0.1, 0.0], [1.0, 0.3], [0.8, 1.1], [-0.2, 0.7]])


def _edge_pass_rows(name):
    """Rows about each edge of a convex polygon, four at a time: 0.5,
    1e-9 and 1e-15 outside, on it, 1e-15 and 1e-2 inside, and the
    vertices; then three NaN rows and three far outside."""
    dom = DOMAINS["square"] if name == "square" else TILTED_QUAD
    a, nu = dom._a, dom._inward
    mid = a + 0.5 * dom._edge
    rows = [mid - 0.5 * nu, mid - 1e-9 * nu, mid - 1e-15 * nu, mid,
            mid + 1e-15 * nu, a, mid + 1e-2 * nu,
            [[np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]],
            [[3.0, 3.0], [-2.0, 0.4], [0.4, -7.0]]]
    return dom, np.concatenate(rows)


@pytest.mark.parametrize("name", ["square", "tilted"])
def test_polygon_dist_bound_is_dist_outside_near_edges_and_below_exact_below(
        name):
    dom, pts = _edge_pass_rows(name)
    assert dom.convex
    np.testing.assert_array_equal(dom.dist_bound(pts, 0.05), dom.dist(pts))


@pytest.mark.parametrize("name", ["square", "tilted"])
def test_polygon_dist_bound_skips_the_edge_pass_clearly_outside(
        name, monkeypatch):
    dom, pts = _edge_pass_rows(name)
    rows = []
    edge_pass = Polygon._edge_pass

    def counted(self, p):
        rows.append(len(p))
        return edge_pass(self, p)

    monkeypatch.setattr(Polygon, "_edge_pass", counted)
    outside = np.concatenate([pts[:8], pts[-3:]])   # 0.5 and 1e-9 outside
    assert np.all(dom.dist_bound(outside) == 0.0)
    assert rows == []
    # the rows near an edge, at a vertex and NaN rows still take it
    near = pts[8:-3]
    dom.dist_bound(near)
    assert rows == [len(near) - 4]    # not the interior rows at 1e-2


def test_polygon_convexity_flag():
    assert DOMAINS["square"].convex and BOUNDED_BY["pentagon"].convex
    # clockwise input is reordered before the turns are taken
    assert Polygon(DOMAINS["square"].vertices[::-1]).convex
    assert not DOMAINS["L"].convex
    # a collinear midpoint vertex is a zero turn: not strictly convex
    assert not Polygon([[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]]).convex


def test_star_projection_rarely_falls_back_to_golden_section(monkeypatch):
    dom = StarShaped([1.0, 0.0, 0.1])
    rows = []
    golden = StarShaped._golden_param

    def counted(self, node, px, py, tol):
        rows.append(len(px))
        return golden(self, node, px, py, tol)

    monkeypatch.setattr(StarShaped, "_golden_param", counted)
    rng = np.random.Generator(np.random.Philox(key=5))
    th = rng.random(2000) * 2.0 * np.pi
    gap = 10.0 ** rng.uniform(-9.0, np.log10(0.3), 2000)
    pts = (dom.radial(th) - gap)[:, None] * np.stack([np.cos(th), np.sin(th)],
                                                     axis=1)
    z0, _ = dom.project(pts)
    # Newton steps below 1e-10 diameter that fail the descent test on
    # rounding are converged; sent to golden section they were 818 of these
    # rows, and 191 with only the steps below tolerance counted converged
    assert sum(rows) <= 10
    # dist runs the same solver, so it falls back as rarely
    rows.clear()
    d = dom.dist(pts)
    assert sum(rows) <= 10
    np.testing.assert_allclose(np.linalg.norm(pts - z0, axis=1), d,
                               rtol=0.0, atol=1e-12)


def test_star_dist_is_the_projection_distance():
    dom = StarShaped([1.0, 0.2, 0.1, 0.05])
    rng = np.random.Generator(np.random.Philox(key=21))
    th = rng.random(3000) * 2.0 * np.pi
    # near the boundary, then anywhere inside the disc of radius r_min
    gap = np.concatenate([10.0 ** rng.uniform(-12.0, -2.0, 1500),
                          dom.radial(th[1500:])
                          - dom.r_min * np.sqrt(rng.random(1500))])
    pts = (dom.radial(th) - gap)[:, None] * np.stack([np.cos(th), np.sin(th)],
                                                     axis=1)
    assert np.all(dom.contains(pts))
    z0, _ = dom.project(pts)
    want = np.linalg.norm(pts - z0, axis=1)
    np.testing.assert_array_equal(dom.dist(pts), want)
    np.testing.assert_array_equal(dom.signed_dist(pts), want)
    # the exact rows of dist_bound read the same distance
    np.testing.assert_array_equal(dom.dist_bound(pts, np.inf), want)
