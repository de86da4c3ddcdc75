import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import betainc
from scipy.stats import kstest

import fraclab
from fraclab.barriers import (ExteriorData, capped_distance_data,
                              constant_data, coordinate_data,
                              counterexample_min_rs_1,
                              holder_point_singularity)
from fraclab.errors import (DivergenceError, DomainError, ParameterError,
                            ReliabilityError)
from fraclab.geometry import Ball, HalfPlane, Polygon, StarShaped, unit_square
from fraclab.kernels import KernelSpec, make_fractional_laplacian
from fraclab.wos import (StableExitSampler, WoSConfig, ball_poisson,
                         halfplane_poisson, kappa_constant, sample_ball_exit,
                         solve)

from oracles import exit_law_median, exit_law_tail_prob

K05 = make_fractional_laplacian(0.5, 2)
BALL = Ball([0.0, 0.0], 1.0)


# ---------------------------------------------------------------------------
# exit law

def exit_gap_cdf(u, s):
    """P(r - 1 <= u) for the exit radius r, in closed form: r <= 1 + u iff
    W = r^-2 >= (1 + u)^-2, where W ~ Beta(s, 1-s).  Near r = 1 it is
    I_z(1-s, s) with z = 1 - r^-2 = u (2 + u) / r^2 formed without
    cancellation, beyond z = 1/2 it is 1 - I_{1/r^2}(s, 1-s)."""
    u = np.asarray(u, dtype=float)
    r = 1.0 + u
    z = (u / r) * ((2.0 + u) / r)
    return np.where(z <= 0.5, betainc(1.0 - s, s, np.minimum(z, 0.5)),
                    1.0 - betainc(s, 1.0 - s, 1.0 / r ** 2))


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_exit_radii_match_beta_closed_form(s):
    # the closed form against the quadrature oracles of the radial density
    assert 1.0 - exit_gap_cdf(1.0, s) == pytest.approx(
        exit_law_tail_prob(s, 2.0), rel=1e-9)
    assert exit_gap_cdf(exit_law_median(s) - 1.0, s) == pytest.approx(
        0.5, abs=1e-9)
    # the drawn radii against the closed form.  float64 rounds every
    # r - 1 < 1.1e-16 to r == 1.0, an atom of 2.7% at s = 0.9 that the KS
    # test cannot take: it tests the law above r = 1 + 1e-12, and the head
    # test below counts the radii under it
    rng = np.random.Generator(np.random.Philox(key=41))
    r = StableExitSampler(s).radius(np.arange(200000), rng)
    cut = 1e-12
    head = exit_gap_cdf(cut, s)
    above = lambda v: (exit_gap_cdf(v - 1.0, s) - head) / (1.0 - head)
    assert kstest(r[r - 1.0 > cut], above).pvalue > 1e-3


@pytest.mark.parametrize("s", [0.5, 0.9])
def test_exit_radius_head_matches_beta_closed_form(s):
    rng = np.random.Generator(np.random.Philox(key=46))
    n = 10 ** 6
    gap = StableExitSampler(s).radius(np.arange(n), rng) - 1.0
    for t in (1e-8, 1e-6, 1e-4):
        p = exit_gap_cdf(t, s)
        sigma = np.sqrt(n * p * (1.0 - p))
        assert abs(np.count_nonzero(gap < t) - n * p) <= 4.0 * sigma


def test_exit_radius_shares_draws_between_equal_slots():
    rng = np.random.Generator(np.random.Philox(key=47))
    r = StableExitSampler(0.5).radius(np.array([0, 0, 1, 2, 2]), rng)
    assert r[0] == r[1] and r[3] == r[4]
    assert len(np.unique(r)) == 3


def test_import_leaves_scipy_interpolate_unloaded():
    # the exit law is drawn in closed form; scipy.interpolate, once loaded
    # for a fitted one, cost about a quarter of the import time
    code = "import sys, fraclab; print('scipy.interpolate' in sys.modules)"
    src = os.path.dirname(os.path.dirname(fraclab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# the README's walk-on-spheres commands, with few paths; ``fit`` reads the
# profile written before it
_WALK_COMMANDS = (
    ["validate-kernel", "--s", "0.5", "--samples", "200"],
    ["solve", "--domain", "ball",
     "--data", '{"name":"capped_distance","p":[2,0],"cap":3}',
     "--points", "0,0;0.5,0", "--paths", "2000", "--seed", "1",
     "--out", "sol.csv"],
    ["profile", "--domain", "ball",
     "--data", '{"name":"holder_point_singularity","alpha":0.3,"z0":[1,0]}',
     "--n", "6", "--paths", "4000", "--seed", "7", "--out", "prof.csv"],
    ["fit", "--input", "prof.csv", "--s", "0.5", "--out", "fit.json"],
    ["experiment", "--alpha", "0.3", "--paths", "2000", "--seed", "7",
     "--out", "exp.csv"],
)


def test_walk_commands_leave_scipy_special_unloaded(tmp_path):
    # scipy.special (with scipy.linalg behind it) more than doubled the cold
    # start; only the Gauss-Jacobi rules of the quadratures load it
    code = ("import sys\n"
            "from fraclab import cli\n"
            f"for argv in {_WALK_COMMANDS!r}:\n"
            "    assert cli.run(['--threads', '1', *argv]) == 0, argv\n"
            "print('scipy.special' in sys.modules)")
    src = os.path.dirname(os.path.dirname(fraclab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip().splitlines()[-1] == "False"


def test_exit_tail_probability_matches_oracle():
    rng = np.random.Generator(np.random.Philox(key=42))
    n = 10 ** 6
    y = sample_ball_exit(0.5, 2, rng, n=n)
    r = np.linalg.norm(y, axis=1)
    # r == 1.0 is the float64 rounding of r - 1 < 1.1e-16 (probability
    # about 8e-9 at s = 0.5), and this stream draws one such radius
    assert np.all(r >= 1.0)
    p = exit_law_tail_prob(0.5, 2.0)
    se = np.sqrt(p * (1 - p) / n)
    assert abs(np.mean(r > 2.0) - p) <= 3.0 * se


def test_exit_isotropy():
    rng = np.random.Generator(np.random.Philox(key=43))
    n = 10 ** 6
    y = sample_ball_exit(0.5, 2, rng, n=n)
    u = y / np.linalg.norm(y, axis=1, keepdims=True)
    # each direction component has variance 1/2
    se = np.sqrt(0.5 / n)
    assert np.all(np.abs(np.mean(u, axis=0)) <= 3.0 * se)


def test_exit_median_decreases_with_s():
    rng = np.random.Generator(np.random.Philox(key=44))
    med = {}
    for s in (0.1, 0.9):
        y = sample_ball_exit(s, 2, rng, n=200000)
        med[s] = np.median(np.linalg.norm(y, axis=1))
        oracle = exit_law_median(s)
        assert med[s] == pytest.approx(oracle, rel=2e-2)
    assert med[0.9] < med[0.1]


def test_exit_dim1():
    rng = np.random.Generator(np.random.Philox(key=45))
    y = sample_ball_exit(0.5, 1, rng, n=50000)
    assert y.shape == (50000, 1)
    assert np.all(np.abs(y) > 1.0)
    assert abs(np.mean(np.sign(y))) < 0.02


# ---------------------------------------------------------------------------
# solver

def test_constant_data_exact():
    out = solve(BALL, constant_data(1.0), [0.3, 0.0], K05,
                WoSConfig(paths=2000, seed=1))
    assert out.estimate == 1.0
    assert out.stderr == 0.0
    assert out.snapped_fraction < 0.05


def test_antisymmetry_at_center():
    # the coordinate datum grows like |y|, so its payload has a finite mean
    # only for s > 1/2; at s = 1/2 solve refuses it
    k = make_fractional_laplacian(0.75, 2)
    out = solve(BALL, coordinate_data(0), [0.0, 0.0], k,
                WoSConfig(paths=20000, seed=2, antithetic=False))
    assert abs(out.estimate) <= 3.0 * out.stderr + 1e-3
    # from the centre the full ball exits in one jump, and the two walkers
    # of an antithetic pair land at opposite points
    pairs = solve(BALL, coordinate_data(0), [0.0, 0.0], k,
                  WoSConfig(paths=20000, seed=2))
    assert pairs.estimate == 0.0 and pairs.stderr == 0.0


def test_matches_poisson_quadrature():
    g = capped_distance_data([2.0, 0.0], 3.0)
    x = [0.3, 0.0]
    out = solve(BALL, g, x, K05, WoSConfig(paths=200000, seed=3))
    v, e = ball_poisson(BALL, g, x, 0.5)
    assert abs(out.estimate - v) <= 3.0 * (out.stderr + e)


def test_maximum_principle():
    g = capped_distance_data([2.0, 0.0], 3.0)
    lo, hi = 0.0, 3.0
    for i, x in enumerate(([0.0, 0.0], [0.5, 0.2], [-0.8, 0.0])):
        out = solve(BALL, g, x, K05, WoSConfig(paths=20000, seed=4),
                    point_index=i)
        assert lo - 3 * out.stderr <= out.estimate <= hi + 3 * out.stderr


def test_seed_determinism_bit_identical():
    g = holder_point_singularity(0.3, [1.0, 0.0])
    cfg = WoSConfig(paths=30000, seed=77)
    a = solve(BALL, g, [0.4, 0.1], K05, cfg)
    b = solve(BALL, g, [0.4, 0.1], K05, cfg)
    assert a.estimate == b.estimate
    assert a.stderr == b.stderr
    assert a.mean_steps == b.mean_steps
    c = solve(BALL, g, [0.4, 0.1], K05, WoSConfig(paths=30000, seed=78))
    assert c.estimate != a.estimate


def test_kappa_consistency():
    g = capped_distance_data([2.0, 0.0], 3.0)
    x = [0.2, 0.1]
    a = solve(BALL, g, x, K05, WoSConfig(paths=100000, seed=5,
                                         sphere_fraction=0.5))
    b = solve(BALL, g, x, K05, WoSConfig(paths=100000, seed=6,
                                         sphere_fraction=0.25))
    assert abs(a.estimate - b.estimate) <= 3.0 * (a.stderr + b.stderr)
    # the exit law is exact for every ball inside the domain, and dist_bound
    # is a lower bound on the distance: the full ball is as unbiased as half
    star = StarShaped([1.0, 0.0, 0.1])
    for dom, x in ((BALL, [0.2, 0.1]), (unit_square(), [0.1, 0.3]),
                   (star, [0.7, 0.3])):
        full = solve(dom, g, x, K05, WoSConfig(paths=100000, seed=5,
                                               sphere_fraction=1.0))
        half = solve(dom, g, x, K05, WoSConfig(paths=100000, seed=6,
                                               sphere_fraction=0.5))
        assert full.mean_steps < half.mean_steps
        assert abs(full.estimate - half.estimate) \
            <= 3.0 * (full.stderr + half.stderr)
    # the fraction's range is (0, 1], and the full ball is the default
    assert WoSConfig().sphere_fraction == 1.0
    assert WoSConfig(sphere_fraction=1.0).sphere_fraction == 1.0
    for bad in (0.0, 1.0000001):
        with pytest.raises(ParameterError, match="sphere_fraction"):
            WoSConfig(sphere_fraction=bad)


def test_snap_bias_controlled():
    g = holder_point_singularity(0.3, [1.0, 0.0])
    x = [0.9, 0.0]
    base_eps = 1e-6 * BALL.diameter
    a = solve(BALL, g, x, K05, WoSConfig(paths=100000, seed=7,
                                         snap_eps=base_eps))
    b = solve(BALL, g, x, K05, WoSConfig(paths=100000, seed=8,
                                         snap_eps=2.0 * base_eps))
    bound = g.C0 * (2.0 * base_eps) ** g.alpha + 3.0 * (a.stderr + b.stderr)
    assert abs(a.estimate - b.estimate) <= bound
    assert a.bias_bound == pytest.approx(g.C0 * base_eps ** g.alpha)


def test_linearity_in_data():
    g1 = capped_distance_data([2.0, 0.0], 3.0)
    g2 = constant_data(1.0)
    a, b = 0.7, -1.3
    combo = ExteriorData(fn=lambda p: a * g1(p) + b * g2(p), alpha=0.9,
                         C0=5.0, growth=0.0)
    x = [0.25, -0.3]
    cfg = WoSConfig(paths=50000, seed=9)
    # common random numbers: same seed makes the identity nearly exact
    v_combo = solve(BALL, combo, x, K05, cfg)
    v1 = solve(BALL, g1, x, K05, cfg)
    v2 = solve(BALL, g2, x, K05, cfg)
    assert v_combo.estimate == pytest.approx(a * v1.estimate + b * v2.estimate,
                                             abs=1e-12)


def test_solver_rejects_bad_inputs():
    g = constant_data(1.0)
    with pytest.raises(DomainError):
        solve(BALL, g, [2.0, 0.0], K05, WoSConfig(paths=10))
    with pytest.raises(DomainError):
        solve(HalfPlane([0, 1]), g, [0.0, 1.0], K05, WoSConfig(paths=10))
    aniso = KernelSpec(s=0.5, dim=2, lam=1.0, Lam=1.5,
                       angular_density=lambda th: 1.0 + 0.5 * th[..., 0] ** 2)
    with pytest.raises(ParameterError):
        solve(BALL, g, [0.0, 0.0], aniso, WoSConfig(paths=10))


def test_solver_rejects_kernel_of_other_dimension():
    with pytest.raises(ParameterError, match="dim"):
        solve(BALL, constant_data(1.0), [0.0, 0.0],
              make_fractional_laplacian(0.5, 1), WoSConfig(paths=10))


def test_solver_rejects_a_3d_ball_before_walking():
    ball3 = Ball([0.0, 0.0, 0.0], 1.0)
    ball3.dist_bound = lambda *a: pytest.fail("a walker started")
    with pytest.raises(ParameterError, match="dim"):
        solve(ball3, constant_data(1.0), [0.1, 0.0, 0.0],
              make_fractional_laplacian(0.5, 3), WoSConfig(paths=10))


@pytest.mark.parametrize("kwargs", [
    {"batch_size": 0},
    {"batch_size": -4},
    {"paths": 10, "batch_size": 3},   # odd batches would break up pairs
])
def test_config_rejects_bad_batch_size(kwargs):
    with pytest.raises(ParameterError, match="batch_size"):
        WoSConfig(**kwargs)


def test_odd_batch_size_without_antithetic_pairs():
    out = solve(BALL, constant_data(1.0), [0.0, 0.0], K05,
                WoSConfig(paths=10, batch_size=3, antithetic=False, seed=1))
    assert out.paths_used == 10


def test_even_batches_walk_the_rounded_paths():
    out = solve(BALL, constant_data(1.0), [0.0, 0.0], K05,
                WoSConfig(paths=11, batch_size=4, seed=1))
    assert out.paths_used == 12


@pytest.mark.parametrize("paths, antithetic", [(1, False), (1, True),
                                               (2, True)])
def test_stderr_of_one_estimator_unit_is_nan(paths, antithetic):
    out = solve(BALL, capped_distance_data([2.0, 0.0], 3.0), [0.3, 0.0], K05,
                WoSConfig(paths=paths, antithetic=antithetic, seed=1))
    assert np.isnan(out.stderr)
    assert np.isfinite(out.estimate)


def test_stderr_does_not_cancel_under_a_large_mean():
    # a payload spread of 1e-4 about a mean of 1e6: E[u^2] - mean^2 from
    # running sums cancelled to a stderr of 0.0.  The datum grows like |y|,
    # so order 3/4 keeps its payload's mean finite
    def shifted(offset):
        return ExteriorData(fn=lambda p: offset + 1e-3 * np.asarray(p)[..., 0],
                            alpha=1.0, C0=1e-3, growth=1.0)

    k = make_fractional_laplacian(0.75, 2)
    cfg = WoSConfig(paths=20000, seed=1)
    far = solve(unit_square(), shifted(1e6), [0.3, 0.4], k, cfg)
    near = solve(unit_square(), shifted(0.0), [0.3, 0.4], k, cfg)
    assert far.estimate - 1e6 == pytest.approx(near.estimate, abs=1e-9)
    assert near.stderr > 0.0
    assert far.stderr == pytest.approx(near.stderr, rel=1e-8)


def test_reliability_error_on_tiny_step_budget():
    # off centre: from the centre the full ball exits in one jump
    g = constant_data(1.0)
    with pytest.raises(ReliabilityError):
        solve(BALL, g, [0.9, 0.0], K05, WoSConfig(paths=1000, max_steps=1,
                                                  seed=1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_payloads_raise():
    # at s = 0.01 numpy's Beta(s, 1 - s) underflows W = r^-2 to 0 for
    # about 5e-4 of the draws: the exit radius is inf, and so is a growing
    # datum there (the walk returned inf +- nan)
    k = make_fractional_laplacian(0.01, 2)
    grows = ExteriorData(fn=lambda p: np.linalg.norm(p, axis=-1) ** 0.005,
                         growth=0.005)
    cfg = WoSConfig(paths=20000, seed=1)
    with pytest.raises(ReliabilityError, match=r"of 20000 .* s = 0\.01"):
        solve(BALL, grows, [0.0, 0.0], k, cfg)
    # a bounded datum takes those walkers at its cap
    out = solve(BALL, capped_distance_data([2.0, 0.0], 3.0), [0.0, 0.0], k,
                cfg)
    assert np.isfinite(out.estimate) and np.isfinite(out.stderr)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dom, x", [
    (BALL, [0.0, 0.0]),
    (unit_square(), [0.5, 0.5]),
    (StarShaped([1.0, 0.0, 0.1]), [0.0, 0.0]),
], ids=["ball", "square", "star"])
def test_small_orders_walk_without_warnings(dom, x):
    # at s = 0.01 a Beta draw W = 0 is an exit at infinity, which the capped
    # datum pays at its cap; the step reported it as "divide by zero ... in
    # power", "overflow ... in multiply" and, on the square, "invalid value
    # ... in multiply" (inf * 0 in an edge line), with estimates near 2.97
    out = solve(dom, capped_distance_data([2.0, 0.0], 3.0), x,
                make_fractional_laplacian(0.01, 2),
                WoSConfig(paths=20000, seed=1))
    assert np.isfinite(out.estimate) and 0.0 <= out.estimate <= 3.0


def test_solve_refuses_a_datum_whose_mean_diverges():
    # the exit radius has tail P(R > r) ~ r^(-2s), so a datum growing like
    # |y|^a pays an infinite mean once a >= 2s: at s = 0.1 the 0.3 datum
    # returned 1161.9 +- 870
    ball = Ball([0.0, 0.0], 1.0)
    ball.dist_bound = lambda *a: pytest.fail("a walker started")
    g = holder_point_singularity(0.3, [1.0, 0.0])
    with pytest.raises(DivergenceError, match=r"growth 0\.3 .* 2s = 0\.2"):
        solve(ball, g, [0.0, 0.0], make_fractional_laplacian(0.1, 2),
              WoSConfig(paths=2000, seed=1))
    # the boundary case a = 2s diverges too
    with pytest.raises(DivergenceError, match="growth 1.0"):
        solve(ball, coordinate_data(0), [0.0, 0.0], K05, WoSConfig(paths=10))
    # below 2s the mean is finite and the walk runs
    out = solve(BALL, g, [0.0, 0.0], make_fractional_laplacian(0.2, 2),
                WoSConfig(paths=2000, seed=1))
    assert np.isfinite(out.estimate)


def test_a_datum_that_declares_no_growth_is_refused(monkeypatch):
    # a bare callable has no growth to check: at s = 0.1 the 0.3 datum
    # walked to 949.55 +- 742 with a NaN bias_bound, and at s = 0.2
    # ball_poisson read 2.83 +- 0.08 against 3.73 with the growth declared
    ball = Ball([0.0, 0.0], 1.0)
    ball.dist_bound = lambda *a: pytest.fail("a walker started")
    monkeypatch.setattr(fraclab.wos, "_ball_poisson_level",
                        lambda *a, **k: pytest.fail("a level ran"))
    bare = holder_point_singularity(0.3, [1.0, 0.0]).fn
    with pytest.raises(ParameterError, match="g = .*declares no growth"):
        solve(ball, bare, [0.0, 0.0], make_fractional_laplacian(0.1, 2),
              WoSConfig(paths=2000, seed=1))
    with pytest.raises(ParameterError, match="g = .*declares no growth"):
        ball_poisson(ball, bare, [0.0, 0.0], 0.2)
    with pytest.raises(ParameterError, match="g = .*declares no growth"):
        halfplane_poisson(constant_data(1.0).fn, [0.0, 1.0], 0.5)


@pytest.mark.parametrize("dom, x, max_steps", [
    (Ball([0.0, 0.0], 1.0), [0.9, 0.0], 16),   # some walkers hit max_steps
    (unit_square(), [0.02, 0.5], 1000),
    (StarShaped([1.0, 0.0, 0.1]), [0.95, 0.05], 1000),
], ids=["ball", "square", "star"])
def test_one_projection_and_one_datum_call_per_batch(dom, x, max_steps):
    calls = {"project": 0, "datum": 0}
    project = dom.project

    def counted_project(pts):
        calls["project"] += 1
        return project(pts)

    base = holder_point_singularity(0.3, [1.0, 0.0])

    def counted_datum(pts):
        calls["datum"] += 1
        return base.fn(pts)

    dom.project = counted_project
    g = dataclasses.replace(base, fn=counted_datum)
    out = solve(dom, g, x, K05, WoSConfig(paths=4000, seed=3,
                                          max_steps=max_steps))
    assert out.snapped_fraction > 0.0
    assert (out.n_maxed > 0) == (max_steps < 1000)
    assert calls == {"project": 1, "datum": 1}


def test_rotated_square_walks_agree_with_the_unit_square():
    # a rotated square steps on the edge-line closed form, which rounds
    # unlike the axis-aligned one; its walk must solve the same problem
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    sq = unit_square()
    turned = Polygon(sq.vertices @ rot.T)
    g = capped_distance_data([2.0, 0.5], 3.0)
    g_turned = dataclasses.replace(g, fn=lambda p: g.fn(p @ rot))
    x = np.array([0.3, 0.6])
    cfg = WoSConfig(paths=20000, seed=11)
    a = solve(sq, g, x, K05, cfg)
    b = solve(turned, g_turned, rot @ x, K05, cfg)
    assert a.estimate != b.estimate
    assert abs(a.estimate - b.estimate) <= 4.0 * np.hypot(a.stderr, b.stderr)


def test_polygon_domain_walks():
    sq = unit_square()
    g = holder_point_singularity(0.1, [0.0, 0.0])
    out = solve(sq, g, [0.5, 0.5], K05, WoSConfig(paths=20000, seed=10))
    assert 0.0 < out.estimate < g.C0 * (1.0 + 3.0)
    assert out.mean_steps > 1.0


def test_star_domain_walks():
    from fraclab.geometry import StarShaped
    star = StarShaped([1.0, 0.0, 0.1])
    g = capped_distance_data([2.0, 0.0], 3.0)
    out = solve(star, g, [0.2, 0.1], K05, WoSConfig(paths=20000, seed=21))
    # datum values lie in [0, 3]; the estimate must respect the bounds
    assert 0.0 < out.estimate < 3.0
    assert out.snapped_fraction < 0.05


def test_star_disc_matches_exit_law_oracle():
    # r = 1 is the unit disc, with no closed-form shortcut in its distance
    # bound; from the centre, P(exit radius > 2) is the exit law's tail.
    # Half balls take several steps; the full ball exits in one jump
    far = ExteriorData(
        fn=lambda p: (np.linalg.norm(p, axis=1) > 2.0).astype(float),
        alpha=0.5, C0=1.0)
    tail = exit_law_tail_prob(0.5, 2.0)
    half = solve(StarShaped([1.0]), far, [0.0, 0.0], K05,
                 WoSConfig(paths=40000, seed=31, sphere_fraction=0.5))
    assert half.mean_steps > 1.0
    assert abs(half.estimate - tail) <= 4.0 * half.stderr
    full = solve(StarShaped([1.0]), far, [0.0, 0.0], K05,
                 WoSConfig(paths=40000, seed=31))
    assert full.mean_steps == 1.0 and full.steps_max == 1
    assert full.snapped_fraction == 0.0
    assert abs(full.estimate - tail) <= 4.0 * full.stderr


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_wos_1d_matches_exit_law_oracle(s):
    # the exit law's radial density does not depend on the dimension, so
    # from the centre of (-1, 1), P(|exit point| > 1.5) is its tail
    far = ExteriorData(fn=lambda p: (np.abs(p[..., 0]) > 1.5).astype(float),
                       growth=0.0)
    k = make_fractional_laplacian(s, 1)
    tail = exit_law_tail_prob(s, 1.5)
    half = solve(Ball([0.0], 1.0), far, [0.0], k,
                 WoSConfig(paths=40000, seed=3, sphere_fraction=0.5))
    assert half.mean_steps > 1.0
    assert abs(half.estimate - tail) <= 4.0 * half.stderr
    full = solve(Ball([0.0], 1.0), far, [0.0], k,
                 WoSConfig(paths=40000, seed=3))
    assert full.mean_steps == 1.0 and full.steps_max == 1
    assert full.snapped_fraction == 0.0
    assert abs(full.estimate - tail) <= 4.0 * full.stderr


def test_bias_bound_counts_max_steps_walkers():
    g = holder_point_singularity(0.3, [1.0, 0.0])
    out = solve(BALL, g, [0.9, 0.0], K05,
                WoSConfig(paths=4000, seed=3, max_steps=16))
    assert 0 < out.n_maxed <= 0.01 * out.paths_used
    assert out.steps_max == 16
    snap_only = g.C0 * (1e-6 * BALL.diameter) ** g.alpha
    assert out.bias_bound > snap_only
    done = solve(BALL, g, [0.9, 0.0], K05, WoSConfig(paths=4000, seed=3))
    assert done.n_maxed == 0 and 0 < done.steps_max < 1000
    assert done.bias_bound == pytest.approx(snap_only, rel=1e-15)


def test_walkers_within_snap_eps_after_the_last_step_ran_out_of_steps():
    # from depth 0.1 with snap_eps = 0.05 many walkers land within snap_eps
    # on the last allowed step: they count in n_maxed (paid at their
    # projection), they do not snap; pinned from the loop that tested for
    # snaps at the top of each step, so none followed the last one
    g = holder_point_singularity(0.3, [1.0, 0.0])
    cfg = WoSConfig(paths=4000, seed=3, snap_eps=0.05, max_steps=2)
    with pytest.raises(ReliabilityError,
                       match=r"^1413 of 4000 paths hit max_steps = 2$"):
        solve(BALL, g, [0.9, 0.0], K05, cfg)
    out = solve(BALL, g, [0.9, 0.0], K05, dataclasses.replace(cfg,
                                                              max_steps=8))
    assert (out.n_maxed, out.steps_max) == (31, 8)
    assert out.snapped_fraction == 0.29325
    assert out.bias_bound == 0.41165700400372124


class CountingBall(Ball):
    """A ball that counts the rows its dist_bound is handed."""
    rows = 0

    def dist_bound(self, x, exact_below=0.0):
        self.rows += len(x)
        return super().dist_bound(x, exact_below)


@pytest.mark.parametrize("batch_size, n_batches", [(1 << 15, 1), (1000, 4)])
def test_dist_bound_gets_one_start_row_per_batch_and_one_row_per_step(
        batch_size, n_batches):
    # every walker of a batch starts at x: one row serves them all (the
    # batch handed dist_bound a copy of x per walker)
    ball = CountingBall([0.0, 0.0], 1.0)
    out = solve(ball, capped_distance_data([2.0, 0.0], 3.0), [0.5, 0.2], K05,
                WoSConfig(paths=4000, seed=1, batch_size=batch_size))
    steps = round(out.paths_used * out.mean_steps)
    assert ball.rows == n_batches + steps


# seeded estimates and stderrs of the benchmark's square-corner and star
# problems at 2000 paths.  Square walks step on the exact distance, so how a
# step queries the geometry may change, these values may not.  Star walks
# step on StarShaped.dist_bound, a lower bound on the distance (smaller
# steps, new streams); they are pinned at the values of that walk.  Both are
# drawn from the exact Beta exit law, one radius and one angle per live
# antithetic pair and step, from the whole ball of radius dist_bound.
SQUARE_PINNED = [
    (1e-4, 0.4390189967319075, 0.0017540619800195266),
    (1e-2, 0.6875819807078501, 0.0025567818756747685),
]
STAR_PINNED = [
    (0.3, 0.5, 1.9347995787827152, 0.017169540867107046),
    (1.2, 0.05, 1.9847520227312179, 0.011138727920048726),
    (2.0, 1e-3, 2.5389216510324037, 0.003541029025753007),
]
# the stderrs of the same walks from variance sums not shifted by the first
# estimator unit, which agree with the pins above to the last few bits
SQUARE_UNSHIFTED_STDERR = [0.0017540619800195073, 0.002556781875674718]
STAR_UNSHIFTED_STDERR = [0.017169540867107078, 0.011138727920048734,
                         0.003541029025752933]
# the same problems walked from half the ball of radius dist_bound, with
# the datum's distance taken by np.linalg.norm
SQUARE_HALF_BALL_STEPS = [
    (1e-4, 0.4375694588405487, 0.001717939215602741),
    (1e-2, 0.6854919129181836, 0.0023985151558037657),
]
STAR_HALF_BALL_STEPS = [
    (0.3, 0.5, 1.920945890575877, 0.017525193879284667),
    (1.2, 0.05, 1.9987881071416207, 0.010508945615636384),
    (2.0, 1e-3, 2.5426181275363113, 0.003321536681187605),
]
# the same problems walked with the spline-fitted exit law, which drew two
# uniforms (radius and angle) per pair of a batch at every step, live or not
SQUARE_SPLINE_LAW = [
    (1e-4, 0.4350525861139503, 0.0015656268881668552),
    (1e-2, 0.6915072495337344, 0.0025402161226172463),
]
STAR_SPLINE_LAW = [
    (0.3, 0.5, 1.9079100961063276, 0.017024449406507606),
    (1.2, 0.05, 1.9905671582232907, 0.010801379724466105),
    (2.0, 1e-3, 2.548743004174643, 0.00317297862652147),
]
# the star problems walked with the spline law on the exact star distance
STAR_EXACT_STEPS = [
    (0.3, 0.5, 1.9122384667701249, 0.016695513443374773),
    (1.2, 0.05, 1.9890396832851602, 0.010872455384544904),
    (2.0, 1e-3, 2.5480203846153318, 0.0031230080079117503),
]


def test_square_corner_walks_pinned():
    sq = unit_square()
    g = holder_point_singularity(0.1, [0.0, 0.0])
    bisector = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)])
    for k, (t, est, se) in enumerate(SQUARE_PINNED):
        out = solve(sq, g, t * bisector, K05, WoSConfig(paths=2000, seed=1),
                    point_index=k)
        assert (out.estimate, out.stderr) == (est, se)
        assert out.stderr == pytest.approx(SQUARE_UNSHIFTED_STDERR[k],
                                           rel=1e-12, abs=0)
        assert out.snapped_fraction > 0.0


def test_star_walks_pinned():
    from fraclab.geometry import StarShaped
    star = StarShaped([1.0, 0.0, 0.1])
    g = capped_distance_data([2.0, 0.0], 3.0)
    for k, (th, gap, est, se) in enumerate(STAR_PINNED):
        x = (float(star.radial(th)) - gap) * np.array([np.cos(th), np.sin(th)])
        out = solve(star, g, x, K05, WoSConfig(paths=2000, seed=1),
                    point_index=k)
        assert (out.estimate, out.stderr) == (est, se)
        assert out.stderr == pytest.approx(STAR_UNSHIFTED_STDERR[k],
                                           rel=1e-12, abs=0)
        assert out.snapped_fraction > 0.0


def test_star_pins_agree_with_exact_distance_walks():
    for new, old in zip(STAR_PINNED, STAR_EXACT_STEPS):
        assert new[:2] == old[:2]
        assert abs(new[2] - old[2]) <= 4.0 * np.hypot(new[3], old[3])


@pytest.mark.parametrize("pinned, half", [
    (SQUARE_PINNED, SQUARE_HALF_BALL_STEPS),
    (STAR_PINNED, STAR_HALF_BALL_STEPS)], ids=["square", "star"])
def test_pins_agree_with_half_ball_walks(pinned, half):
    for new, old in zip(pinned, half):
        assert new[:-2] == old[:-2]
        assert new[-2] != old[-2]
        assert abs(new[-2] - old[-2]) <= 4.0 * np.hypot(new[-1], old[-1])


@pytest.mark.parametrize("pinned, spline", [
    (SQUARE_PINNED, SQUARE_SPLINE_LAW), (STAR_PINNED, STAR_SPLINE_LAW)])
def test_pins_agree_with_spline_law_walks(pinned, spline):
    for new, old in zip(pinned, spline):
        assert new[:-2] == old[:-2]
        assert abs(new[-2] - old[-2]) <= 4.0 * np.hypot(new[-1], old[-1])


# ---------------------------------------------------------------------------
# Poisson quadratures

def test_ball_poisson_constant():
    v, e = ball_poisson(BALL, constant_data(1.0), [0.5, 0.2], 0.5)
    assert v == pytest.approx(1.0, abs=1e-12)


def test_ball_poisson_maximum_principle():
    g = holder_point_singularity(0.3, [1.0, 0.0])
    v, e = ball_poisson(BALL, g, [0.0, 0.0], 0.5)
    assert 0.0 < v < 3.0


def test_ball_poisson_refuses_a_diverging_datum_before_any_level(monkeypatch):
    monkeypatch.setattr(fraclab.wos, "_ball_poisson_level",
                        lambda *a, **k: pytest.fail("a level ran"))
    g = holder_point_singularity(0.3, [1.0, 0.0])
    with pytest.raises(DivergenceError, match=r"growth 0\.3 .* 2s = 0\.2"):
        ball_poisson(BALL, g, [0.0, 0.0], 0.1)


def test_halfplane_poisson_constant():
    v, e = halfplane_poisson(constant_data(1.0), [0.3, 0.5], 0.5)
    assert v == pytest.approx(1.0, abs=1e-6)
    v2, _ = halfplane_poisson(constant_data(1.0), [-2.0, 0.01], 0.5)
    assert v2 == pytest.approx(1.0, abs=1e-6)


def test_halfplane_poisson_rejects():
    with pytest.raises(DomainError):
        halfplane_poisson(coordinate_data(0), [0.0, 1.0], 0.5)
    with pytest.raises(DomainError):
        halfplane_poisson(constant_data(1.0), [0.0, -1.0], 0.5)


def test_counterexample_log_lower_bound():
    """u(0,t) >= c t^s log(1/t) with positive c on the acceptance window."""
    s = 0.5
    g = counterexample_min_rs_1(s)
    for t in (1e-4, 1e-3, 1e-2):
        v, e = halfplane_poisson(g, [0.0, t], s)
        ratio = v / (t ** s * np.log(1.0 / t))
        assert ratio > 0.3


def test_counterexample_ratio_flat():
    s = 0.5
    g = counterexample_min_rs_1(s)
    ts = np.geomspace(1e-4, 1e-2, 7)
    ratios = []
    for t in ts:
        v, _ = halfplane_poisson(g, [0.0, t], s)
        ratios.append(v / (t ** s * np.log(1.0 / t)))
    ratios = np.asarray(ratios)
    assert (ratios.max() - ratios.min()) / ratios.min() < 0.2


def test_kappa_constant_value():
    from scipy.integrate import quad
    for s in (0.3, 0.5, 0.7):
        ref, _ = quad(lambda t: abs(np.sin(t)) ** (-s), 1.25 * np.pi,
                      1.75 * np.pi, epsabs=1e-15, epsrel=1e-13)
        assert kappa_constant(s) == pytest.approx(ref, rel=1e-12, abs=0.0)


# values of the per-angle quadratures that the batched evaluation replaced;
# the rule is unchanged, so they agree to rounding
@pytest.mark.parametrize("g, x, s, value", [
    (capped_distance_data([2.0, 0.0], 3.0), [0.0, 0.0], 0.5,
     2.3434755711573363),
    (capped_distance_data([2.0, 0.0], 3.0), [0.3, -0.5], 0.5,
     2.121894653230531),
    (holder_point_singularity(0.3, [1.0, 0.0]), [0.99, 0.0], 0.5,
     0.5000613005196507),
])
def test_ball_poisson_pinned(g, x, s, value):
    v, _ = ball_poisson(BALL, g, x, s)
    assert v == pytest.approx(value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("x, s, value", [
    ([0.0, 1e-3], 0.5, 0.14110339974378966),
    ([0.7, 0.05], 0.5, 0.8657308164161771),
    ([-1.5, 0.3], 0.3, 0.9906028121656738),
])
def test_halfplane_poisson_pinned(x, s, value):
    v, _ = halfplane_poisson(counterexample_min_rs_1(s), x, s)
    assert v == pytest.approx(value, rel=1e-12, abs=0.0)
