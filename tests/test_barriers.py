import numpy as np
import pytest

from fraclab.barriers import (bracket_cone_beta0,
                              capped_distance_data, cone_boundary_points,
                              coordinate_data,
                              counterexample_min_rs_1, data_from_config,
                              holder_point_singularity,
                              verify_cone_barrier,
                              verify_halfspace_supersolution,
                              verify_psi_barrier)
from fraclab.errors import ParameterError, UnsupportedVariantError
from fraclab.fields import ConeBarrier, HalfSpacePower
from fraclab.geometry import Ball, HalfPlane, StarShaped, unit_square
from fraclab.kernels import make_fractional_laplacian
import fraclab.barriers as barriers_mod
from fraclab.nonlocal_op import QuadratureSpec, apply_L, apply_L_many

Q_FAST = QuadratureSpec(target_rel_tol=1e-5, max_angular_panels=24,
                        max_radial_panels=200)


def test_eval_barrier_halfspace():
    b = HalfSpacePower([0.0, 1.0], 0.3)
    v = b(np.array([[5.0, 4.0], [5.0, -1.0]]))
    assert v[0] == pytest.approx(4.0 ** 0.3)
    assert v[1] == 0.0


def test_eval_barrier_cone():
    b = ConeBarrier([0.0, 1.0], 1.0, 0.1)
    v = b(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert v[0] == 0.0
    # psi(1, 0) = 0 + 1 * 1 * (1 - 0) = 1
    assert v[1] == pytest.approx(1.0)


def test_cone_barrier_exact_homogeneity():
    b = ConeBarrier([0.0, 1.0], 0.7, 0.23)
    rng = np.random.Generator(np.random.Philox(key=2))
    pts = rng.standard_normal((200, 2)) * 2.0
    v = b(pts)
    for lam in (0.5, 3.0):
        np.testing.assert_allclose(b(lam * pts), lam ** 0.23 * v,
                                   rtol=1e-12, atol=1e-300)


def test_barrier_zero_outside_positivity_set():
    b = ConeBarrier([0.0, 1.0], 1.0, 0.1)
    rng = np.random.Generator(np.random.Philox(key=4))
    pts = rng.standard_normal((2000, 2)) * 3.0
    psi = np.asarray(b.domain.psi_value(pts))
    vals = b(pts)
    assert np.all(vals[psi <= 0] == 0.0)
    assert np.all(vals[psi > 0] > 0.0)


def test_barrier_holder_on_sampled_pairs():
    # |b(x) - b(y)| <= C |x-y|^beta on a fixed ball
    beta = 0.3
    b = ConeBarrier([0.0, 1.0], 1.0, beta)
    rng = np.random.Generator(np.random.Philox(key=6))
    x = rng.standard_normal((10000, 2))
    y = rng.standard_normal((10000, 2))
    num = np.abs(b(x) - b(y))
    den = np.linalg.norm(x - y, axis=1) ** beta
    keep = den > 0
    ratio = np.max(num[keep] / den[keep])
    assert ratio < 10.0


def test_halfspace_supersolution_passes():
    K = make_fractional_laplacian(0.5, 2)
    pts = [np.array([0.1 * h, h]) for h in (0.5, 1.0, 2.0)]
    rep = verify_halfspace_supersolution(K, 0.25, pts, q=Q_FAST)
    assert rep.passed
    assert rep.min_value > 0
    assert rep.extra["homogeneity_rel_dev"] < 1e-3


def test_halfspace_supersolution_anisotropic_kernel():
    # the inequality holds for every admissible homogeneous kernel
    from fraclab.kernels import KernelSpec
    K = KernelSpec(s=0.5, dim=2, lam=1.0, Lam=1.5,
                   angular_density=lambda th: 1.0 + 0.5 * th[..., 0] ** 2)
    pts = [np.array([0.0, 1.0]), np.array([0.4, 0.6])]
    rep = verify_halfspace_supersolution(K, 0.25, pts, q=Q_FAST)
    assert rep.passed and rep.min_value > 0


def test_cone_barrier_anisotropic_kernel():
    # no homogeneity of the kernel is needed for the cone barrier
    from fraclab.kernels import KernelSpec
    K = KernelSpec(s=0.4, dim=2, lam=0.8, Lam=1.6,
                   angular_density=lambda th: 1.2 - 0.4 * th[..., 1] ** 2)
    rep = verify_cone_barrier(K, (0.0, 1.0), 1.0, 0.05,
                              points=cone_boundary_points((0.0, 1.0), 1.0, 4),
                              q=Q_FAST, check_scaling=False)
    assert rep.passed


def test_halfspace_alpha_at_s_rejected():
    K = make_fractional_laplacian(0.5, 2)
    with pytest.raises(ParameterError):
        verify_halfspace_supersolution(K, 0.5, [np.array([0.0, 1.0])])


def test_halfspace_high_order():
    K = make_fractional_laplacian(0.9, 2)
    rep = verify_halfspace_supersolution(K, 0.1, [np.array([0.0, 1.0])],
                                         q=Q_FAST)
    assert rep.passed and rep.min_value > 0


def test_halfspace_margin_monotone_in_alpha():
    """Decreasing alpha never flips PASS to FAIL: margins grow."""
    K = make_fractional_laplacian(0.5, 2)
    pts = [np.array([0.0, 1.0])]
    mins = []
    for alpha in (0.4, 0.3, 0.2, 0.1):
        rep = verify_halfspace_supersolution(K, alpha, pts, q=Q_FAST)
        assert rep.passed
        mins.append(rep.min_value)
    assert all(b > a * 0.999 for a, b in zip(mins, mins[1:]))


def test_psi_barrier_ball():
    K = make_fractional_laplacian(0.5, 2)
    rep = verify_psi_barrier(K, Ball([0.0, 0.0], 1.0), 0.25,
                             band=(1e-2, 1e-1), n_points=6, q=Q_FAST)
    assert rep.passed
    assert rep.extra["c0_hat"] > 0


def test_psi_barrier_alpha_near_s():
    K = make_fractional_laplacian(0.5, 2)
    rep = verify_psi_barrier(K, Ball([0.0, 0.0], 1.0), 0.45,
                             band=(1e-2, 1e-1), n_points=5, q=Q_FAST)
    assert rep.passed


def test_psi_barrier_star_domain():
    K = make_fractional_laplacian(0.5, 2)
    star = StarShaped([1.0, 0.0, 0.08])
    rep = verify_psi_barrier(K, star, 0.25, band=(3e-2, 1e-1), n_points=3,
                             q=QuadratureSpec(target_rel_tol=1e-4,
                                              max_angular_panels=16,
                                              max_radial_panels=120))
    assert rep.passed


def test_psi_barrier_out_of_band_skipped():
    K = make_fractional_laplacian(0.5, 2)
    rep = verify_psi_barrier(K, Ball([0.0, 0.0], 1.0), 0.25,
                             band=(1e-2, 1e-1),
                             d_values=[0.5, 0.05, 0.02], q=Q_FAST)
    assert 0.5 in rep.extra["skipped_d"]
    assert "band" in rep.extra["note"]
    assert len(rep.values) == 2


def test_psi_barrier_rejects_bad_domain_or_alpha():
    K = make_fractional_laplacian(0.5, 2)
    with pytest.raises(UnsupportedVariantError):
        verify_psi_barrier(K, unit_square(), 0.25)
    with pytest.raises(ParameterError):
        verify_psi_barrier(K, Ball([0.0, 0.0], 1.0), 0.6)


def test_cone_barrier_small_beta_passes():
    K = make_fractional_laplacian(0.5, 2)
    rep = verify_cone_barrier(K, (0.0, 1.0), 1.0, 0.05,
                              points=cone_boundary_points((0.0, 1.0), 1.0, 8),
                              q=Q_FAST)
    assert rep.passed
    assert rep.extra["scaling_rel_dev"] < 1e-3


def test_cone_barrier_thin_cone_large_beta():
    # beta near 1 on a thin cone: failure is acceptable, the report must
    # simply complete with finite values
    K = make_fractional_laplacian(0.5, 2)
    rep = verify_cone_barrier(K, (0.0, 1.0), 0.05, 0.99,
                              points=cone_boundary_points((0.0, 1.0), 0.05, 4),
                              q=QuadratureSpec(target_rel_tol=1e-4,
                                               max_angular_panels=16),
                              check_scaling=False)
    assert np.all(np.isfinite(rep.values))


def test_cone_beta0_bracket():
    K = make_fractional_laplacian(0.5, 2)
    pts = cone_boundary_points((0.0, 1.0), 1.0, 6)
    out = bracket_cone_beta0(K, (0.0, 1.0), 1.0, points=pts, iters=3,
                             q=QuadratureSpec(target_rel_tol=1e-4,
                                              max_angular_panels=16))
    assert 0.0 <= out["beta_lo"] <= out["beta_hi"] <= 1.0


def test_reports_reuse_operator_values(monkeypatch):
    """The scaling diagnostics reuse the first point's value, and the
    bisection skips them; reports and brackets stay bit for bit."""
    K = make_fractional_laplacian(0.5, 2)
    q = QuadratureSpec(target_rel_tol=1e-4, max_angular_panels=16)
    calls = []      # one entry per operator point, whatever the batching

    def counting(kernel, u, points, q=None):
        calls.extend(u for _ in points)
        return apply_L_many(kernel, u, points, q=q)

    monkeypatch.setattr(barriers_mod, "apply_L_many", counting)

    pts = [np.array([0.1, 0.5]), np.array([-0.3, 1.2])]
    rep = verify_halfspace_supersolution(K, 0.25, pts, q=q)
    assert len(calls) == 3
    u = HalfSpacePower([0.0, 1.0], 0.25)
    v0 = apply_L(K, u, pts[0], q=q).value
    assert rep.values[0] == v0
    assert rep.extra["homogeneity_ratio"] == (
        apply_L(K, u, 2.0 * pts[0], q=q).value / v0)

    calls.clear()
    cone_pts = cone_boundary_points((0.0, 1.0), 1.0, 2)
    rep = verify_cone_barrier(K, (0.0, 1.0), 1.0, 0.3, points=cone_pts, q=q)
    assert len(calls) == 3
    u = ConeBarrier((0.0, 1.0), 1.0, 0.3)
    v0 = apply_L(K, u, cone_pts[0], q=q).value
    assert rep.values[0] == v0
    assert rep.extra["scaling_ratio"] == (
        apply_L(K, u, 2.0 * cone_pts[0], q=q).value / v0)

    calls.clear()
    out = bracket_cone_beta0(K, (0.0, 1.0), 1.0, points=cone_pts, iters=2,
                             q=q)
    # 4 verdicts, no diagnostics: beta 0.02 passes on both points, and
    # 0.98, 0.5 and 0.26 each fail on the first point they evaluate
    assert len(calls) == 2 + 1 + 1 + 1
    lo, hi = 0.02, 0.98
    assert verify_cone_barrier(K, (0.0, 1.0), 1.0, lo, cone_pts, q=q).passed
    assert not verify_cone_barrier(K, (0.0, 1.0), 1.0, hi, cone_pts,
                                   q=q).passed
    for _ in range(2):
        mid = 0.5 * (lo + hi)
        if verify_cone_barrier(K, (0.0, 1.0), 1.0, mid, cone_pts, q=q).passed:
            lo = mid
        else:
            hi = mid
    assert out == {"beta_lo": lo, "beta_hi": hi, "note": "bisection bracket"}


@pytest.mark.parametrize("q, iters, bracket, n_points", [
    (QuadratureSpec(target_rel_tol=1e-4, max_angular_panels=16), 5,
     (0.11, 0.14), 22),
    (None, 6, (0.125, 0.14), 28)], ids=["criterion-4", "default-spec"])
def test_cone_bracket_verifies_its_least_margin_point_first(
        monkeypatch, q, iters, bracket, n_points):
    """Criterion 4's bracket, on its 6 cone points, evaluates a failing
    beta's point of least margin alone and stops there: 22 points where
    evaluating every point of its 7 verdicts took 42 (28 and 48 at the
    default spec), with the same bracket."""
    K = make_fractional_laplacian(0.5, 2)
    counted = []

    def counting(kernel, u, points, q=None):
        counted.extend(points)
        return apply_L_many(kernel, u, points, q=q)

    monkeypatch.setattr(barriers_mod, "apply_L_many", counting)
    out = bracket_cone_beta0(K, (0.0, 1.0), 1.0,
                             points=cone_boundary_points((0.0, 1.0), 1.0, 6),
                             iters=iters, q=q)
    assert (out["beta_lo"], out["beta_hi"]) == pytest.approx(bracket,
                                                             abs=1e-15)
    assert len(counted) == n_points


# ---------------------------------------------------------------------------
# exterior data

def test_data_certificates():
    ball = Ball([0.0, 0.0], 1.0)
    g = holder_point_singularity(0.3, [1.0, 0.0])
    rep = g.validate(ball, n_samples=500)
    assert rep["holder_ok"] and rep["growth_ok"]

    g2 = counterexample_min_rs_1(0.5)
    rep2 = g2.validate(ball, n_samples=500)
    assert rep2["holder_ok"] and rep2["growth_ok"]

    g3 = capped_distance_data([2.0, 0.0], 3.0)
    rep3 = g3.validate(ball, n_samples=500)
    assert rep3["holder_ok"] and rep3["growth_ok"]


# sampled (holder_ratio, growth_ratio) of the certificate check, seed 3,
# 500 samples, recorded when boundary samples were dispatched on attributes;
# dispatching on the domain type draws the same numbers.  The data take
# their distances by np.hypot, which moved the last bit of two ratios
VALIDATE_PINNED = {
    ("ball", "point"): (0.8453903952451518, 0.7229095404309195),
    ("ball", "capped"): (1.0896280718696865, 1.3309270479738593),
    ("square", "point"): (0.9047852804472915, 0.7035544285275134),
    ("square", "capped"): (1.0610724558315012, 1.5072538391909867),
    ("star", "point"): (0.8022420229538304, 0.7280875842133419),
    ("star", "capped"): (1.0923319334852393, 1.2677541565841957),
    ("halfplane", "point"): (0.7721121274879137, 0.6865284995462778),
    ("halfplane", "capped"): (1.115470199441526, 1.511964251859706),
}
# the two ratios when the data took their distances by np.linalg.norm
NORM_DISTANCE_RATIOS = {
    ("star", "capped"): (1.0923319334852395, 1.2677541565841957),
    ("halfplane", "capped"): (1.1154701994415261, 1.511964251859706),
}


@pytest.mark.parametrize("dom_name, data_name", sorted(VALIDATE_PINNED))
def test_validate_reports_pinned(dom_name, data_name):
    dom = {"ball": Ball([0.0, 0.0], 1.0), "square": unit_square(),
           "star": StarShaped([1.0, 0.0, 0.1]),
           "halfplane": HalfPlane([0.0, 1.0])}[dom_name]
    g = {"point": holder_point_singularity(0.3, [1.0, 0.0]),
         "capped": capped_distance_data([2.0, 0.0], 3.0)}[data_name]
    rep = g.validate(dom, n_samples=500, seed=3)
    assert (rep["holder_ratio"], rep["growth_ratio"]) \
        == VALIDATE_PINNED[dom_name, data_name]


@pytest.mark.parametrize("key", sorted(NORM_DISTANCE_RATIOS))
def test_validate_pins_agree_with_norm_distance_ratios(key):
    for new, old in zip(VALIDATE_PINNED[key], NORM_DISTANCE_RATIOS[key]):
        assert new == pytest.approx(old, rel=1e-15, abs=0)


def test_data_use_hypot_distances():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((1000, 2)) * 3.0
    z0 = np.array([1.0, -0.5])
    r = np.hypot(pts[:, 0] - z0[0], pts[:, 1] - z0[1])
    r_norm = np.linalg.norm(pts - z0, axis=-1)
    for g, ref, ref_norm in (
            (holder_point_singularity(0.3, z0), r ** 0.3, r_norm ** 0.3),
            (capped_distance_data(z0, 3.0), np.minimum(r, 3.0),
             np.minimum(r_norm, 3.0)),
            (counterexample_min_rs_1(0.5),
             np.minimum(np.hypot(pts[:, 0], pts[:, 1]) ** 0.5, 1.0),
             np.minimum(np.linalg.norm(pts, axis=-1) ** 0.5, 1.0))):
        np.testing.assert_array_equal(g(pts), ref)
        # the np.linalg.norm form they replaced rounds within a few ulp
        np.testing.assert_allclose(g(pts), ref_norm,
                                   rtol=4 * np.finfo(float).eps, atol=0)
    # in 1-D the distance is |y - z0|
    line = rng.standard_normal((50, 1))
    np.testing.assert_array_equal(
        holder_point_singularity(0.3, [0.2])(line),
        np.abs(line[:, 0] - 0.2) ** 0.3)


def test_data_builtin_configs():
    g = data_from_config({"name": "holder_point_singularity", "alpha": 0.3,
                          "z0": [1.0, 0.0]})
    assert g(np.array([2.0, 0.0])) == pytest.approx(1.0)
    g2 = data_from_config({"name": "counterexample_min_rs_1", "s": 0.5})
    assert g2(np.array([4.0, 0.0])) == 1.0
    assert g2(np.array([0.25, 0.0])) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        data_from_config({"name": "nope"})


@pytest.mark.parametrize("make, named", [
    (lambda: holder_point_singularity(0.3, [0.0, 0.0], C0=-1.0), "C0"),
    (lambda: holder_point_singularity(0.3, [0.0, 0.0], C0=0.0), "C0"),
    (lambda: holder_point_singularity(0.3, [0.0, 0.0], C0=np.nan), "C0"),
    (lambda: holder_point_singularity(-0.5, [1.0, 0.0]), "alpha"),
    (lambda: holder_point_singularity(0.0, [1.0, 0.0]), "alpha"),
    (lambda: holder_point_singularity(1.5, [1.0, 0.0]), "alpha"),
    (lambda: holder_point_singularity(np.nan, [1.0, 0.0]), "alpha"),
    (lambda: capped_distance_data([2.0, 0.0], 0.0), "cap"),
    (lambda: capped_distance_data([2.0, 0.0], -3.0), "cap"),
    (lambda: capped_distance_data([2.0, 0.0], np.nan), "cap"),
], ids=["C0<0", "C0=0", "C0=nan", "alpha<0", "alpha=0", "alpha>1",
        "alpha=nan", "cap=0", "cap<0", "cap=nan"])
def test_data_refuse_a_certificate_that_bounds_nothing(make, named):
    # a negative C0 made the walk's bias bound negative, and alpha -0.5
    # walked a datum singular at its anchor with exit 0
    with pytest.raises(ParameterError, match=named):
        make()


@pytest.mark.parametrize("record, named", [
    ({"name": "capped_distance", "p": [2, 0], "cap": "abc"}, "cap"),
    ({"name": "capped_distance", "p": ["a", 0], "cap": 3}, "p"),
    ({"name": "capped_distance", "p": [[2, 0]], "cap": 3}, "p"),
    ({"name": "capped_distance", "p": [2, 0], "cap": 3, "alpha": None},
     "alpha"),
    ({"name": "holder_point_singularity", "alpha": "0.3", "z0": [1, 0]},
     "alpha"),
    ({"name": "holder_point_singularity", "alpha": 0.3, "z0": [1, True]},
     "z0"),
    ({"name": "holder_point_singularity", "alpha": 0.3, "z0": [1, 0],
      "C0": "2"}, "C0"),
    ({"name": "counterexample_min_rs_1", "s": "0.5"}, "s"),
    ({"name": "constant", "value": "2"}, "value"),
    ({"name": "constant", "value": float("inf")}, "value"),
    ({"name": "coordinate", "axis": "0"}, "axis"),
    ({"name": "coordinate", "axis": 0.5}, "axis"),
], ids=["cap-str", "p-str", "p-nested", "alpha-null", "holder-alpha-str",
        "z0-bool", "C0-str", "s-str", "value-str", "value-inf", "axis-str",
        "axis-float"])
def test_data_records_refuse_a_non_number_by_its_key(record, named):
    # cap "abc" died in Python's "'>' not supported", p ["a", 0] in
    # "could not convert string to float", and alpha "0.3" passed every
    # check and died inside the walk
    with pytest.raises(ParameterError,
                       match=rf"^{record['name']} {named} must be "):
        data_from_config(record)


def test_data_take_the_ends_of_their_ranges():
    assert holder_point_singularity(1.0, [1.0, 0.0], C0=1e-300).alpha == 1.0
    assert capped_distance_data([2.0, 0.0], 1e-300).C0 == 1.0


def test_coordinate_data_window_certificate():
    ball = Ball([0.0, 0.0], 1.0)
    g = coordinate_data(0)
    rep = g.validate(ball, n_samples=500, window=4.0)
    assert rep["holder_ok"]


def test_report_jsonable():
    K = make_fractional_laplacian(0.5, 2)
    rep = verify_halfspace_supersolution(K, 0.25, [np.array([0.0, 1.0])],
                                         q=Q_FAST)
    body = rep.to_jsonable()
    import json
    json.dumps(body)
    assert body["pass"] is True
