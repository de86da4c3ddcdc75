"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities and asserting the stated tolerances and runtime."""

import time

import numpy as np

from fraclab.barriers import (bracket_cone_beta0, capped_distance_data,
                              cone_boundary_points, constant_data,
                              counterexample_min_rs_1,
                              holder_point_singularity,
                              verify_cone_barrier,
                              verify_halfspace_supersolution,
                              verify_psi_barrier)
from fraclab.extension import check_extension_bounds
from fraclab.fields import (ConeBarrier, HalfSpacePower, PowerPlus1D,
                            TranslatedField)
from fraclab.geometry import Ball, HalfPlane, unit_square
from fraclab.kernels import make_fractional_laplacian, validate_kernel
from fraclab.nonlocal_op import QuadratureSpec, apply_L, apply_L_1d, homogeneity_check
from fraclab.regularity import (boundary_profile, exponent_experiment,
                                fit_holder, halfplane_solver)
from fraclab.wos import WoSConfig, ball_poisson, solve

BALL = Ball([0.0, 0.0], 1.0)
K05 = make_fractional_laplacian(0.5, 2)


def report(num, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"\n{status} criterion {num}: {detail} [{elapsed:.1f}s < {limit}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_s_harmonicity():
    t0 = time.time()
    worst = 0.0
    for s in (0.3, 0.5, 0.7):
        for t in (0.25, 0.5, 1.0, 2.0):
            ov = apply_L_1d(s, PowerPlus1D(alpha=s), t)
            worst = max(worst, abs(ov.value))
    elapsed = time.time() - t0
    report(1, worst <= 5e-6, f"max |(-Delta)^s (t_+)^s| = {worst:.2e} <= 5e-6",
           elapsed, 10.0)


def test_criterion_2_halfspace_supersolution():
    t0 = time.time()
    q = QuadratureSpec(target_rel_tol=1e-5)
    heights = np.geomspace(0.3, 3.0, 10)
    worst_margin = np.inf
    worst_ratio_dev = 0.0
    for alpha in (0.1, 0.25, 0.4):
        pts = [np.array([0.2 * h, h]) for h in heights]
        rep = verify_halfspace_supersolution(K05, alpha, pts, q=q)
        assert rep.passed
        worst_margin = min(worst_margin, rep.min_margin)
        worst_ratio_dev = max(worst_ratio_dev, rep.extra["homogeneity_rel_dev"])
    ok = worst_margin > 10.0 and worst_ratio_dev < 1e-3
    elapsed = time.time() - t0
    report(2, ok, f"min margin {worst_margin:.1f}x err (> 10), "
                  f"homogeneity dev {worst_ratio_dev:.2e} (< 1e-3)",
           elapsed, 30.0)


def test_criterion_3_psi_barrier():
    t0 = time.time()
    q = QuadratureSpec(target_rel_tol=1e-5)
    rep = verify_psi_barrier(K05, BALL, 0.25, band=(1e-3, 1e-1),
                             n_points=20, q=q)
    c0 = rep.extra["c0_hat"]
    slope = rep.extra["loglog_slope"]
    ok = rep.passed and c0 > 0 and abs(slope) <= 0.1
    elapsed = time.time() - t0
    report(3, ok, f"c0 = {c0:.3f} > 0, log-log slope {slope:+.3f} within 0.1",
           elapsed, 120.0)


def test_criterion_4_cone_barrier():
    t0 = time.time()
    q = QuadratureSpec(target_rel_tol=1e-5)
    pts = cone_boundary_points((0.0, 1.0), 1.0, 16)
    rep = verify_cone_barrier(K05, (0.0, 1.0), 1.0, 0.05, points=pts, q=q)
    bracket = bracket_cone_beta0(
        K05, (0.0, 1.0), 1.0, points=cone_boundary_points((0.0, 1.0), 1.0, 6),
        iters=5, q=QuadratureSpec(target_rel_tol=1e-4, max_angular_panels=16))
    ok = (rep.passed and rep.min_margin > 5.0
          and rep.extra["scaling_rel_dev"] < 1e-3
          and 0.0 < bracket["beta_hi"] <= 1.0)
    elapsed = time.time() - t0
    report(4, ok, f"min margin {rep.min_margin:.0f}x err (> 5), scaling dev "
                  f"{rep.extra['scaling_rel_dev']:.2e}, beta0 bracket "
                  f"[{bracket['beta_lo']:.3f}, {bracket['beta_hi']:.3f}]",
           elapsed, 120.0)


def test_criterion_5_wos_oracle_equivalence():
    t0 = time.time()
    g = capped_distance_data([2.0, 0.0], 3.0)
    points = ([0.0, 0.0], [0.3, 0.0], [0.0, 0.5], [-0.4, 0.2], [0.1, -0.6])
    worst_z = 0.0
    ok = True
    for i, x in enumerate(points):
        out = solve(BALL, g, x, K05, WoSConfig(paths=10 ** 6, seed=50),
                    point_index=i)
        v, e = ball_poisson(BALL, g, x, 0.5)
        z = abs(out.estimate - v) / (3.0 * (out.stderr + e))
        worst_z = max(worst_z, z)
        ok &= z <= 1.0
        ok &= 0.0 - 3 * out.stderr <= out.estimate <= 3.0 + 3 * out.stderr
    elapsed = time.time() - t0
    report(5, ok, f"max |WoS - quadrature| = {worst_z:.2f} "
                  "of the 3(stderr+tol) allowance; maximum principle holds",
           elapsed, 300.0)


def test_criterion_6_rate_alpha_below_s():
    t0 = time.time()
    g = holder_point_singularity(0.3, [1.0, 0.0])
    rep = exponent_experiment(BALL, g, 0.5,
                              cfg=WoSConfig(paths=100000, seed=60))
    ok = 0.25 <= rep.alpha_hat <= 0.35 and not rep.log_corrected
    elapsed = time.time() - t0
    report(6, ok, f"alpha_hat = {rep.alpha_hat:.3f} in [0.25, 0.35], "
                  f"model = {rep.fits[0][1].model}", elapsed, 600.0)


def test_criterion_7_rate_alpha_above_s():
    t0 = time.time()
    g = holder_point_singularity(0.8, [1.0, 0.0])
    rep = exponent_experiment(BALL, g, 0.5,
                              cfg=WoSConfig(paths=100000, seed=70))
    ok = 0.45 <= rep.alpha_hat <= 0.55
    elapsed = time.time() - t0
    report(7, ok, f"alpha_hat = {rep.alpha_hat:.3f} in [0.45, 0.55]",
           elapsed, 600.0)


def test_criterion_8_log_counterexample():
    t0 = time.time()
    s = 0.5
    g = counterexample_min_rs_1(s)
    hp = HalfPlane([0.0, 1.0])
    tgrid = np.geomspace(1e-4, 1e-2, 25)
    prof = boundary_profile(halfplane_solver(g, s), hp, g, [0.0, 0.0],
                            tgrid, normal=[0.0, 1.0])
    fit = fit_holder(prof, s=s)
    ratios = np.asarray(prof.values) / (tgrid ** s * np.log(1.0 / tgrid))
    variation = (ratios.max() - ratios.min()) / ratios.min()
    ok = (np.all(ratios > 0) and variation < 0.2
          and fit.alpha_hat <= 0.45 and fit.model == "log_corrected")
    elapsed = time.time() - t0
    report(8, ok, f"ratio > 0, variation {variation:.1%} < 20%, plain "
                  f"alpha_hat = {fit.alpha_hat:.3f} <= 0.45, log model "
                  f"selected (A = {fit.log_coeff:.3f})", elapsed, 300.0)


def test_criterion_9_lipschitz_corner():
    t0 = time.time()
    sq = unit_square()
    g = holder_point_singularity(0.1, [0.0, 0.0])
    rep = exponent_experiment(sq, g, 0.5,
                              cfg=WoSConfig(paths=100000, seed=90))
    ok = 0.05 <= rep.alpha_hat <= 0.15
    elapsed = time.time() - t0
    report(9, ok, f"corner alpha_hat = {rep.alpha_hat:.3f} in [0.05, 0.15]",
           elapsed, 600.0)


def test_criterion_10_extension_bounds():
    t0 = time.time()
    g = holder_point_singularity(0.3, [1.0, 0.0])
    rep = check_extension_bounds(BALL, g)
    ok = rep.passed and rep.slope_tol == 0.15
    elapsed = time.time() - t0
    report(10, ok, f"|D2 gbar| d^(2-a) slope {rep.hess_slope:+.3f}, "
                   f"|L gbar| d^(2s-a) slope {rep.op_slope:+.3f}, "
                   f"both within 0.15 (sups {rep.hess_sup:.2f}, {rep.op_sup:.2f})",
           elapsed, 300.0)


def test_criterion_11_determinism_and_invariances(tmp_path):
    t0 = time.time()
    checks = []

    # byte-identical reruns under fixed seeds (library and CLI)
    g = capped_distance_data([2.0, 0.0], 3.0)
    cfg = WoSConfig(paths=20000, seed=110)
    a = solve(BALL, g, [0.3, 0.1], K05, cfg)
    b = solve(BALL, g, [0.3, 0.1], K05, cfg)
    checks.append(("seed determinism", a.estimate == b.estimate
                   and a.stderr == b.stderr))

    from fraclab.cli import run
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["solve", "--domain", "ball",
            "--data", '{"name": "constant", "value": 1.0}',
            "--points", "0.2,0.0;0.0,0.4", "--paths", "2000", "--seed", "11"]
    run(argv + ["--out", str(p1)])
    run(argv + ["--out", str(p2)])
    checks.append(("CLI byte-identical CSV", p1.read_bytes() == p2.read_bytes()))

    # linearity of the solver under common random numbers
    g2 = constant_data(1.0)
    from fraclab.barriers import ExteriorData
    combo = ExteriorData(fn=lambda p: 2.0 * g(p) - 3.0 * g2(p), alpha=0.9,
                         C0=10.0, growth=0.0)
    v_c = solve(BALL, combo, [0.2, 0.1], K05, cfg)
    v_1 = solve(BALL, g, [0.2, 0.1], K05, cfg)
    v_2 = solve(BALL, g2, [0.2, 0.1], K05, cfg)
    checks.append(("solver linearity",
                   abs(v_c.estimate - (2 * v_1.estimate - 3 * v_2.estimate))
                   <= 1e-12))

    # operator linearity and translation covariance
    q = QuadratureSpec(target_rel_tol=1e-5)
    u = HalfSpacePower([0.0, 1.0], 0.25)
    x = np.array([0.3, 0.8])
    h = np.array([-0.4, 0.3])
    ov0 = apply_L(K05, u, x, q=q)
    ov_shift = apply_L(K05, TranslatedField(u, h), x + h, q=q)
    checks.append(("translation covariance",
                   abs(ov_shift.value - ov0.value)
                   <= 3 * (ov0.err_estimate + ov_shift.err_estimate)))

    # scaling: operator homogeneity on the cone barrier
    rep = homogeneity_check(K05, ConeBarrier([0.0, 1.0], 1.0, 0.05),
                            np.array([0.0, 1.5]), scales=(2.0,), q=q)
    checks.append(("scaling covariance", rep.max_rel_deviation < 1e-3))

    # maximum principle at three points
    mp_ok = True
    for i, x in enumerate(([0.0, 0.0], [0.6, 0.0], [0.0, -0.7])):
        out = solve(BALL, g, x, K05, WoSConfig(paths=20000, seed=111),
                    point_index=i)
        mp_ok &= -3 * out.stderr <= out.estimate <= 3.0 + 3 * out.stderr
    checks.append(("maximum principle", mp_ok))

    # kernel validation invariants
    checks.append(("kernel validation", validate_kernel(K05, 1000).ok))

    failed = [name for name, ok in checks if not ok]
    elapsed = time.time() - t0
    report(11, not failed,
           f"{len(checks)} invariants green" if not failed
           else f"failed: {failed}", elapsed, 300.0)
