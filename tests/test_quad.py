import numpy as np
import pytest
import scipy.integrate._quad_vec as quad_vec

from fraclab import _quad
from fraclab._quad import (NODE_CAP, bisect_edges, gauss_jacobi_01,
                           gl8_panels, graded_edges, mid_panels, node_chunks,
                           periodic_edges, radial_integrals)
from fraclab.fields import ConeBarrier, HalfSpacePower, PsiPower
from fraclab.geometry import Ball
from fraclab.kernels import make_fractional_laplacian
from fraclab.nonlocal_op import QuadratureSpec, _near_radius, _radial


def test_gl8_panels_padding_contributes_nothing():
    edges = np.array([[0.0, 0.5, 1.0, 1.0, 1.0],
                      [0.0, 0.25, 0.5, 0.75, 1.0]])
    x, w = gl8_panels(edges)
    assert x.shape == w.shape == (2, 32)
    assert np.all(w[0, 16:] == 0.0)
    # degree-15 exactness on every panel
    np.testing.assert_allclose(np.sum(w * x ** 15, axis=1), 1.0 / 16.0,
                               rtol=1e-14)


def test_bisect_edges_inserts_midpoints():
    np.testing.assert_array_equal(bisect_edges([[0.0, 1.0, 3.0]]),
                                  [[0.0, 0.5, 1.0, 2.0, 3.0]])


def test_graded_edges_octaves():
    e = graded_edges([0.0, 1.0], [0.25, 0.5], 1.0)
    np.testing.assert_array_equal(np.unique(e[0]),
                                  [-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])
    np.testing.assert_array_equal(np.unique(e[1]), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.all(np.diff(e, axis=1) >= 0.0)


def _periodic_reference(centers, scales, period, tol=1e-13):
    """One row of periodic_edges, merged one edge at a time."""
    lo, hi = centers[0] - period / 2.0, centers[0] + period / 2.0
    edges = {lo, hi}
    for c, sc in zip(centers, scales):
        for e in np.unique(graded_edges(c, max(sc, 1e-14), period / 2.0)):
            edges.add(float(np.clip((e - lo) % period + lo, lo, hi)))
    out = []
    for e in sorted(edges):
        if not out or e - out[-1] > tol:
            out.append(e)
    return np.array(out)


def test_periodic_edges_merge_rule():
    rng = np.random.Generator(np.random.Philox(key=3))
    n = 40
    centers = rng.uniform(-4.0, 4.0, (n, 2))
    scales = 10.0 ** rng.uniform(-14.5, 0.5, (n, 2))
    centers[::3, 1] = centers[::3, 0] + 3e-14   # nearly coincident anchors
    scales[::4, 0] = 2e-14                      # edges chained below 1e-13
    got = periodic_edges(centers, scales, 2.0 * np.pi)
    for i in range(n):
        ref = _periodic_reference(centers[i], scales[i], 2.0 * np.pi)
        np.testing.assert_array_equal(got[i, :len(ref)], ref)
        assert np.all(got[i, len(ref):] == ref[-1])


@pytest.mark.parametrize("sizes", [[5] * 10, [3000, 10, 70000, 500] * 20])
def test_node_chunks_cover_rows_within_cap(sizes):
    sizes = np.array(sizes)
    seen = []
    for rows in node_chunks(sizes):
        assert len(rows) == 1 or np.sum(sizes[rows]) <= NODE_CAP
        seen.extend(rows.tolist())
    assert sorted(seen) == list(range(len(sizes)))


# ---------------------------------------------------------------------------
# the G7/K15 table of the mid panels


def _scipy_gk15():
    """scipy's QUADPACK G7/K15 table: the 15 K15 nodes (descending), the 7
    G7 weights (G7 on the odd-indexed nodes) and the 15 K15 weights."""
    saved = quad_vec._quadrature_gk
    quad_vec._quadrature_gk = lambda a, b, f, norm, x, w, v: (x, w, v)
    try:
        x, w, v = quad_vec._quadrature_gk15(-1.0, 1.0, None, None)
    finally:
        quad_vec._quadrature_gk = saved
    return np.array(x), np.array(w), np.array(v)


_GK15 = _scipy_gk15()


def _check_gk15(x, w15, w7):
    """The committed table against scipy's to 1e-15, and exact on the
    monomials of degree <= 22 (K15) and <= 13 (G7) on [-1, 1]."""
    ref_x, ref_w7, ref_w15 = _GK15
    np.testing.assert_allclose(x, ref_x, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w15, ref_w15, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w7, ref_w7, rtol=0.0, atol=1e-15)
    for rule, nodes, degree in ((w15, x, 22), (w7, x[1::2], 13)):
        d = np.arange(degree + 1)
        exact = (1.0 + (-1.0) ** d) / (d + 1.0)
        got = rule @ nodes[:, None] ** d
        np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-14)


def test_gk15_table_matches_scipy_and_is_exact():
    w15, w7, g7_cols = _quad._MID_RULE
    _check_gk15(_quad._K15_X, w15, w7)
    assert g7_cols == slice(1, None, 2)


@pytest.mark.parametrize("which", ["k15", "g7"])
def test_gk15_check_fails_on_a_perturbed_weight(which):
    for i in range(8 if which == "k15" else 4):
        w15, w7 = _quad._K15_W.copy(), _quad._G7_W.copy()
        (w15 if which == "k15" else w7)[i] += 1e-12
        with pytest.raises(AssertionError):
            _check_gk15(_quad._K15_X, w15, w7)


# ---------------------------------------------------------------------------
# the batched radial quadrature against a one-direction reference


def _reference_edges(lo, hi, kinks, n_min):
    """Log-spaced edges merged with the kinks, one edge at a time."""
    n = max(n_min, int(np.ceil(2.0 * np.log10(hi / lo))), 1)
    edges = np.geomspace(lo, hi, n + 1)
    pts = [e for e in kinks if lo < e < hi]
    if not pts:
        return edges
    keep = [lo]
    for e in np.unique(np.concatenate([edges, pts]))[1:]:
        if e - keep[-1] > 1e-13 * max(abs(e), 1.0):
            keep.append(e)
    if keep[-1] < hi:
        keep.append(hi)
    return np.array(keep)


def _reference_radial(f, u_x, s, rho, kinks, growth, far_cutoff, rel_tol,
                      n_jacobi, init_panels, max_panels):
    """One direction of the radial integral with a list of panels, split
    in place; f(r) is the pair average.  Returns (near, far, err, mass,
    n_evals, bisections)."""
    two_s = 2.0 * s

    def jacobi(g, upper, beta):
        t1, w1 = gauss_jacobi_01(n_jacobi, beta)
        t0, w0 = gauss_jacobi_01(max(n_jacobi // 2, 4), beta)
        scale = upper ** (beta + 1.0)
        vals = g(np.concatenate([t1, t0]) * upper)
        v1 = scale * float(w1 @ vals[:len(t1)])
        v0 = scale * float(w0 @ vals[len(t1):])
        return v1, abs(v1 - v0), scale * float(w1 @ np.abs(vals[:len(t1)]))

    def integrand(r):
        return (u_x - f(r)) * r ** (-1.0 - two_s)

    def panel(a, b):
        x15, w7, w15 = _GK15
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        v15 = integrand(mid + half * x15)
        i15 = half * float(v15 @ w15)
        return [a, b, i15, abs(i15 - half * float(v15[1::2] @ w7)),
                half * float(np.abs(v15) @ w15)]

    near, err_near, mass_near = jacobi(
        lambda r: (u_x - f(r)) / (r * r), rho, 1.0 - two_s)
    kinks = [b for b in kinks if b > 0.0]
    r_far = max(far_cutoff, 4.0 * rho, *(2.0 * b for b in kinks))
    edges = _reference_edges(rho, r_far, kinks, init_panels)
    panels = [panel(a, b) for a, b in zip(edges[:-1], edges[1:])]
    n_evals, bisections = 72 + 15 * len(panels), 0
    tol = rel_tol * max(abs(near + sum(p[2] for p in panels)),
                        0.25 * (mass_near + sum(p[4] for p in panels)), 1e-300)
    for _ in range(40):
        if sum(p[3] for p in panels) <= tol or len(panels) >= max_panels:
            break
        cut = max(tol / len(panels), max(p[3] for p in panels) * 0.25)
        idx = [i for i, p in enumerate(panels) if p[3] >= cut]
        idx = idx[:max_panels - len(panels)]
        if not idx:
            break
        for i in sorted(idx, reverse=True):
            a, b = panels.pop(i)[:2]
            panels.append(panel(a, (a + b) / 2.0))
            panels.append(panel((a + b) / 2.0, b))
        n_evals += 30 * len(idx)
        bisections += len(idx)
    tail_pair, err_tail, mass_tail = jacobi(
        lambda t: f(r_far / t) * t ** growth, 1.0, two_s - 1.0 - growth)
    w = r_far ** (-two_s)
    far = sum(p[2] for p in panels) + u_x * w / two_s - w * tail_pair
    err = err_near + sum(p[3] for p in panels) + err_tail * w
    mass = (mass_near + sum(p[4] for p in panels) + mass_tail * w
            + abs(u_x) * w / two_s)
    return near, far, err, mass, n_evals, bisections


def test_mid_panels_match_one_row_merge():
    rng = np.random.Generator(np.random.Philox(key=5))
    n_dir = 300
    lo = 0.05
    hi = np.maximum(16.0, 10.0 ** rng.uniform(0.0, 4.0, n_dir))
    kinks = np.full((n_dir, 4), np.nan)
    for i in range(n_dir):
        k = rng.integers(0, 5)
        kinks[i, :k] = np.sort(lo * (hi[i] / lo) ** rng.uniform(-0.1, 1.1, k))
    edges = np.array([_reference_edges(lo, h, [], 8) for h in hi[:60]],
                     dtype=object)
    # kinks on or within 1e-13 of an edge, and chains of near-duplicates
    for i in range(60):
        kinks[i, :3] = edges[i][3] * (1.0 + np.array([0.0, 6e-14, 1.2e-13]))
    kinks[60:90, :2] = hi[60:90, None] * (1.0 - np.array([3e-14, 0.0]))
    a, b, k = mid_panels(lo, hi, kinks, 8)
    for i in range(n_dir):
        ref = _reference_edges(lo, hi[i], kinks[i][~np.isnan(kinks[i])], 8)
        np.testing.assert_array_equal(a[k == i], ref[:-1])
        np.testing.assert_array_equal(b[k == i], ref[1:])


CASES = [
    (HalfSpacePower([0.0, 1.0], 0.25), [0.3, 0.8]),
    (PsiPower(Ball([0.0, 0.0], 1.0), 0.25), [0.0, 0.99]),
    (ConeBarrier([0.0, 1.0], 1.0, 0.3), [-0.5, 0.6]),
]


@pytest.mark.parametrize("u, x", CASES)
def test_radial_batch_matches_reference(u, x):
    K = make_fractional_laplacian(0.5, 2)
    q = QuadratureSpec(target_rel_tol=1e-5)
    x = np.asarray(x)
    u_x = float(u(x[None, :])[0])
    rho = _near_radius(u, x, q)
    phis = np.linspace(0.0, np.pi, 17)
    thetas = np.column_stack([np.cos(phis), np.sin(phis)])
    rad = _radial(K, u, u_x, x, thetas, rho, q, 1e-6)
    kinks = u.radial_breakpoints(x, thetas, 1e12)
    n_evals = bisections = 0
    for i, th in enumerate(thetas):
        def f(r, th=th):
            v = u(np.concatenate([x + r[:, None] * th, x - r[:, None] * th]))
            return 0.5 * (v[:len(r)] + v[len(r):])

        near, far, err, mass, ev, bis = _reference_radial(
            f, u_x, 0.5, rho, kinks[i][np.isfinite(kinks[i])], u.growth,
            q.far_cutoff, 1e-6, q.n_jacobi, q.radial_panels,
            q.max_radial_panels)
        # the pieces cancel in places; |f| mass is the scale of the sums
        assert abs(rad.near[i] - near) <= 1e-13 * mass
        assert abs(rad.far[i] - far) <= 1e-13 * mass
        assert abs(rad.err[i] - err) <= 1e-13 * mass
        assert rad.mass[i] == pytest.approx(mass, rel=1e-13)
        assert (rad.n_evals[i], rad.bisections[i]) == (ev, bis)
        n_evals += ev
        bisections += bis
    # the per-direction counts add up to the work of the whole batch
    assert (rad.n_evals.sum(), rad.bisections.sum()) == (n_evals, bisections)
    assert bisections > 0


def test_direction_alone_matches_batch():
    """A direction's rule and sums do not depend on the batch around it."""
    K = make_fractional_laplacian(0.5, 2)
    q = QuadratureSpec(target_rel_tol=1e-5)
    u = PsiPower(Ball([0.0, 0.0], 1.0), 0.25)
    x = np.array([0.3, 0.5])
    u_x = float(u(x[None, :])[0])
    rho = _near_radius(u, x, q)
    phis = np.linspace(0.1, 3.0, 34)
    thetas = np.column_stack([np.cos(phis), np.sin(phis)])
    batch = _radial(K, u, u_x, x, thetas, rho, q, 1e-6)
    for i in (0, 7, 33):
        alone = _radial(K, u, u_x, x, thetas[i:i + 1], rho, q, 1e-6)
        for got, ref in zip(alone[:4], batch[:4]):
            assert got[0] == pytest.approx(ref[i], rel=1e-15, abs=0.0)


def test_radial_integrals_of_a_constant():
    def pair_avg(r, k):
        return np.full(len(r), 2.0)

    out = radial_integrals(pair_avg, 2.0, 0.5, 0.1, [[np.inf], [3.0]], 0.0,
                           16.0, 1e-6, 24, 8, 400)
    assert np.all(out.near == 0.0) and np.all(out.err == 0.0)
    assert out.bisections.tolist() == [0, 0]
    # r_far = 16 on both directions; the kink at 3 adds one panel
    n_mid = len(mid_panels(0.1, np.array([16.0]), np.full((1, 0), np.nan), 8)[0])
    assert out.n_evals.tolist() == [72 + 15 * n_mid, 72 + 15 * (n_mid + 1)]
    assert out.n_evals.sum() == 2 * 72 + 15 * (2 * n_mid + 1)
