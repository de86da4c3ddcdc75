import dataclasses
import re

import numpy as np
import pytest

from fraclab.barriers import constant_data, holder_point_singularity
from fraclab.errors import DomainError, InsufficientDataError, ParameterError
from fraclab.geometry import Ball, unit_square
from fraclab.kernels import make_fractional_laplacian
from fraclab.regularity import (BoundaryProfile, boundary_profile,
                                exponent_experiment, fit_holder,
                                inward_normal, wos_solver)
from fraclab.wos import WoSConfig, ball_poisson

BALL = Ball([0.0, 0.0], 1.0)
K05 = make_fractional_laplacian(0.5, 2)


def synthetic_profile(t, values, stderr=None):
    t = np.asarray(t, dtype=float)
    return BoundaryProfile(z0=(1.0, 0.0), normal=(-1.0, 0.0), t=tuple(t),
                           values=tuple(values),
                           stderr=tuple(stderr if stderr is not None
                                        else np.zeros(len(t))), g0=0.0)


def test_fit_exact_power_law():
    t = np.geomspace(1e-3, 1e-1, 12)
    fit = fit_holder(synthetic_profile(t, t ** 0.3), s=0.5)
    assert fit.alpha_hat == pytest.approx(0.3, abs=1e-3)
    assert fit.model == "plain"
    assert fit.log_coeff == 0.0


def test_fit_power_above_s_still_plain():
    t = np.geomspace(1e-3, 1e-1, 12)
    fit = fit_holder(synthetic_profile(t, t ** 0.7), s=0.5)
    assert fit.model == "plain"
    assert fit.alpha_hat == pytest.approx(0.7, abs=1e-3)


def test_fit_log_corrected_model():
    t = np.geomspace(1e-3, 1e-2, 12)
    vals = t ** 0.5 * np.log(1.0 / t)
    fit = fit_holder(synthetic_profile(t, vals), s=0.5)
    assert fit.model == "log_corrected"
    assert fit.log_coeff == pytest.approx(1.0, rel=1e-9)
    # plain slope tracks the analytic derivative s - 1/log(1/t) at the
    # window's geometric center
    tbar = float(np.exp(np.mean(np.log(t))))
    oracle = 0.5 - 1.0 / np.log(1.0 / tbar)
    assert fit.alpha_hat == pytest.approx(oracle, abs=0.01)
    assert fit.alpha_hat < 0.5


def test_fit_scale_invariance():
    t = np.geomspace(1e-3, 1e-1, 10)
    base = fit_holder(synthetic_profile(t, t ** 0.42))
    scaled = fit_holder(synthetic_profile(t, 37.0 * t ** 0.42))
    assert scaled.alpha_hat == pytest.approx(base.alpha_hat, abs=1e-12)


def test_fit_window_invariance_power_law():
    for lo, hi in ((1e-4, 1e-2), (1e-3, 1e-1), (1e-2, 1.0)):
        t = np.geomspace(lo, hi, 9)
        fit = fit_holder(synthetic_profile(t, 2.0 * t ** 0.6))
        assert fit.alpha_hat == pytest.approx(0.6, abs=1e-3)


def test_fit_noisy_power_law_never_log():
    rng = np.random.Generator(np.random.Philox(key=31))
    t = np.geomspace(1e-3, 1e-1, 14)
    for trial in range(10):
        clean = t ** 0.3
        noise = clean / 300.0  # SNR 300
        vals = clean + noise * rng.standard_normal(len(t))
        fit = fit_holder(synthetic_profile(t, vals, stderr=noise), s=0.5)
        assert fit.model == "plain"


def test_fit_insufficient_data():
    t = np.geomspace(1e-3, 1e-1, 5)
    with pytest.raises(InsufficientDataError):
        fit_holder(synthetic_profile(t, t ** 0.3))
    # enough points but drowned in noise
    t = np.geomspace(1e-3, 1e-1, 10)
    with pytest.raises(InsufficientDataError):
        fit_holder(synthetic_profile(t, t ** 0.3,
                                     stderr=np.full(len(t), 10.0)))


def test_fit_weights_downweight_noisy_points():
    t = np.geomspace(1e-3, 1e-1, 12)
    vals = np.array(t ** 0.3)
    vals[0] *= 1.5  # corrupt one point
    se = np.full(len(t), 1e-6)
    se[0] = 0.3  # but mark it as noisy
    fit = fit_holder(synthetic_profile(t, vals, stderr=se))
    assert fit.alpha_hat == pytest.approx(0.3, abs=2e-3)


def test_boundary_profile_constant_data():
    g = constant_data(1.0)
    solver = wos_solver(BALL, g, K05, WoSConfig(paths=500, seed=13))
    prof = boundary_profile(solver, BALL, g, [1.0, 0.0],
                            np.geomspace(1e-3, 1e-1, 8))
    assert np.allclose(prof.values, 0.0)
    assert prof.g0 == 1.0


@pytest.mark.parametrize("dom, z0, off", [
    (BALL, [0.5, 0.0], "0.5"), (BALL, [0.0, 0.0], "1"),
    (BALL, [1.0 + 1e-6, 0.0], "1e-06"),
    (unit_square(), [0.5, 0.5], "0.5")],
    ids=["ball-inside", "ball-centre", "ball-just-outside", "square-inside"])
def test_boundary_profile_refuses_a_z0_off_the_boundary(monkeypatch, dom, z0,
                                                        off):
    # an inside z0 profiled from there as if it were a boundary point, and
    # the ball's centre met a 0/0 in the inward normal first; the refusal
    # comes before any normal or walk
    def fail(*args):
        raise AssertionError("reached past the z0 check")

    monkeypatch.setattr("fraclab.regularity.inward_normal", fail)
    g = constant_data(1.0)
    with pytest.raises(DomainError,
                       match=re.escape(f"z0 = {z0} lies {off} off the")):
        boundary_profile(fail, dom, g, z0, [1e-3, 1e-2])


def test_boundary_profile_takes_a_z0_within_rounding_of_the_boundary():
    # 1e-12 off the unit circle is within 1e-9 diameters of it
    g = constant_data(1.0)
    solver = wos_solver(BALL, g, K05, WoSConfig(paths=200, seed=13))
    z0 = [1.0 + 1e-12, 0.0]
    assert BALL.signed_dist(z0) < 0.0
    prof = boundary_profile(solver, BALL, g, z0, [1e-3, 1e-2])
    assert len(prof.t) == 2


def test_boundary_profile_trims_exterior_points():
    g = constant_data(1.0)
    solver = wos_solver(BALL, g, K05, WoSConfig(paths=200, seed=13))
    with pytest.warns(UserWarning, match="trimmed"):
        prof = boundary_profile(solver, BALL, g, [1.0, 0.0],
                                [0.01, 0.1, 3.0])
    assert len(prof.t) == 2


def test_boundary_profile_monotone_singular_datum():
    g = holder_point_singularity(0.3, [1.0, 0.0])
    solver = wos_solver(BALL, g, K05, WoSConfig(paths=20000, seed=14))
    prof = boundary_profile(solver, BALL, g, [1.0, 0.0],
                            np.geomspace(1e-3, 1e-1, 8))
    vals = np.asarray(prof.values)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) > 0)


def test_inward_normal_square_edge_and_corner():
    sq = unit_square()
    np.testing.assert_allclose(inward_normal(sq, [0.5, 0.0]), [0.0, 1.0],
                               atol=1e-2)
    np.testing.assert_allclose(inward_normal(sq, [0.0, 0.0]),
                               [1, 1] / np.sqrt(2), atol=1e-2)


def test_experiment_smoke_and_scale_equivariance():
    g = holder_point_singularity(0.3, [1.0, 0.0])
    cfg = WoSConfig(paths=20000, seed=15)
    rep = exponent_experiment(BALL, g, 0.5, cfg=cfg)
    assert rep.expected_exponent == pytest.approx(0.3)
    assert 0.1 < rep.alpha_hat < 0.5
    # doubling the datum shifts the constant, not the exponent (same seed)
    g2 = holder_point_singularity(0.3, [1.0, 0.0], C0=2.0)
    rep2 = exponent_experiment(BALL, g2, 0.5, cfg=cfg)
    assert rep2.alpha_hat == pytest.approx(rep.alpha_hat, abs=1e-9)
    assert rep.to_jsonable()["alpha_hat"] == rep.alpha_hat


def test_experiment_alpha_equals_s_flags_log():
    # exact synthetic route: inject the half-plane-style log profile through
    # a fake solver to exercise the verdict path deterministically
    g = holder_point_singularity(0.5, [1.0, 0.0])

    def fake_solver(xs, indices):
        t = [1.0 - np.linalg.norm(x) for x in xs]
        return [(tt ** 0.5 * np.log(1.0 / tt) + g((1.0, 0.0)), 0.0)
                for tt in t]

    rep = exponent_experiment(BALL, g, 0.5, solver=fake_solver)
    assert rep.log_corrected
    assert "log-corrected" in rep.verdict


def test_experiment_walks_each_boundary_point_on_its_own_streams():
    # singular point j walks depth k of the 12 on stream index j * 12 + k,
    # so the two profiles share no stream and the anchor keeps indices
    # 0..11
    g = dataclasses.replace(holder_point_singularity(0.3, [1.0, 0.0]),
                            singular_points=((1.0, 0.0), (0.0, 1.0)))
    seen = []

    def recording_solver(xs, indices):
        seen.extend(indices)
        return [(0.1, 0.0)] * len(xs)

    exponent_experiment(BALL, g, 0.5, solver=recording_solver)
    assert seen == list(range(24))


@pytest.mark.parametrize("alpha, lo, hi", [(0.3, 0.25, 0.35),
                                            (0.8, 0.45, 0.55)])
def test_deterministic_twin_of_criteria_6_and_7(alpha, lo, hi):
    # the experiment of criteria 6 and 7 with the ball quadrature in place
    # of the walk: it reads 0.2716 and 0.4861, where the rule with radial
    # panels geometric in rho read 0.2464 and 0.4661, with error estimates
    # up to 21% and 38% of the profile's values
    g = holder_point_singularity(alpha, [1.0, 0.0])
    rep = exponent_experiment(
        BALL, g, 0.5,
        solver=lambda xs, ks: [ball_poisson(BALL, g, x, 0.5) for x in xs])
    assert lo <= rep.alpha_hat <= hi
    prof = rep.profiles[0]
    assert all(e < 0.01 * abs(v) for v, e in zip(prof.values, prof.stderr))


def test_experiment_refuses_a_datum_without_a_singular_point():
    def no_solver(xs, indices):
        pytest.fail("the solver was called")

    with pytest.raises(DomainError, match="no singular point"):
        exponent_experiment(BALL, constant_data(1.0), 0.5, solver=no_solver)


@pytest.mark.parametrize("s", [np.nan, 2.0, -1.0, 0.0, 1.0])
def test_fit_refuses_an_order_outside_the_unit_interval(s):
    # NaN died in LAPACK's SVD with "illegal value" lines, and an order
    # outside (0, 1) fitted a t^s log(1/t) model outside the paper's range
    t = np.geomspace(1e-3, 1e-1, 6)
    with pytest.raises(ParameterError,
                       match=f"^order s must lie in \\(0,1\\), got "
                             f"{re.escape(str(s))}$"):
        fit_holder(synthetic_profile(t, t ** 0.3), s=s)

