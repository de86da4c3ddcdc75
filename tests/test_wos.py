import dataclasses
import os
import re
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
from fraclab import wos
from fraclab.wos import (StableExitSampler, WoSConfig, ball_poisson,
                         halfplane_poisson, kappa_constant, solve)

from oracles import (exit_law_median, exit_law_tail_prob, exit_side_prob_1d,
                     off_centre_exit_prob)

K05 = make_fractional_laplacian(0.5, 2)
BALL = Ball([0.0, 0.0], 1.0)
# the unit disc as a star domain: a Ball walks in one exact jump, the disc
# walks the step loop on which the snap tolerance and the step cap act
DISC = StarShaped([1.0])


class SmallerBalls:
    """``dom`` with its walkers stepping from balls of a fraction of the
    radius of its own: ``dist_bound`` times the fraction wherever that
    stays at or above ``exact_below``, and the bound itself below, so it is
    still a lower bound on the distance that decides the snap exactly."""

    def __init__(self, dom, fraction):
        self.dom, self.fraction = dom, fraction

    def __getattr__(self, name):
        return getattr(self.dom, name)

    def dist_bound(self, x, exact_below=0.0):
        d = self.dom.dist_bound(x, exact_below)
        return np.where(d >= exact_below / self.fraction, self.fraction * d, d)


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


def _loaded_after(commands, modules, cwd):
    """Which of ``modules`` a fresh process has loaded after running the CLI
    ``commands`` one after the other."""
    code = ("import sys\n"
            "from fraclab import cli\n"
            f"for argv in {commands!r}:\n"
            "    assert cli.run(['--threads', '1', *argv]) == 0, argv\n"
            f"print([m for m in {modules!r} if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(fraclab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip().splitlines()[-1]


def test_walk_commands_leave_scipy_special_unloaded(tmp_path):
    # scipy.special (with scipy.linalg behind it) more than doubled the cold
    # start; the walk-on-spheres commands need neither
    assert _loaded_after(_WALK_COMMANDS, ["scipy.special", "scipy.linalg"],
                         tmp_path) == "[]"


# the README's quadrature commands: the operator values and the Poisson
# values build their Gauss-Jacobi rules with numpy alone
_QUADRATURE_COMMANDS = (
    ["apply-op", "--s", "0.5",
     "--field", '{"name": "halfspace_power", "alpha": 0.25}',
     "--points", "0.0,1.0;0.3,2.0", "--rel-tol", "1e-5", "--out", "op.csv"],
    ["verify-barrier", "--kind", "halfspace", "--s", "0.5", "--alpha", "0.25"],
    ["verify-barrier", "--kind", "psi", "--s", "0.5", "--alpha", "0.25"],
    ["verify-barrier", "--kind", "cone", "--s", "0.5", "--beta", "0.05"],
    ["counterexample", "--n", "3"],
)


def test_quadrature_commands_leave_scipy_special_unloaded(tmp_path):
    assert _loaded_after(_QUADRATURE_COMMANDS,
                         ["scipy.special", "scipy.linalg"], tmp_path) == "[]"


def _paired_exit_points(s, x, n, rng):
    """n antithetic pairs of exit points of the unit ball from x, walkers
    2k and 2k + 1 in rows 2k and 2k + 1: the one exact jump of ball
    walkers."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return wos._ball_exit(StableExitSampler(s), np.asarray(x, dtype=float),
                              1.0, 2 * n, rng)


def _exit_points(s, x, n, rng):
    """n independent exit points of the unit ball from x: the first walker
    of each of n antithetic pairs."""
    return _paired_exit_points(s, x, n, rng)[0::2]


def test_exit_tail_probability_matches_oracle():
    rng = np.random.Generator(np.random.Philox(key=42))
    n = 10 ** 6
    y = _exit_points(0.5, [0.0, 0.0], n, rng)
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
    y = _exit_points(0.5, [0.0, 0.0], n, rng)
    u = y / np.linalg.norm(y, axis=1, keepdims=True)
    # each direction component has variance 1/2
    se = np.sqrt(0.5 / n)
    assert np.all(np.abs(np.mean(u, axis=0)) <= 3.0 * se)


def test_exit_median_decreases_with_s():
    rng = np.random.Generator(np.random.Philox(key=44))
    med = {}
    for s in (0.1, 0.9):
        y = _exit_points(s, [0.0, 0.0], 200000, rng)
        med[s] = np.median(np.linalg.norm(y, axis=1))
        oracle = exit_law_median(s)
        assert med[s] == pytest.approx(oracle, rel=2e-2)
    assert med[0.9] < med[0.1]


def test_exit_dim1():
    rng = np.random.Generator(np.random.Philox(key=45))
    y = _exit_points(0.5, [0.0], 50000, rng)
    assert y.shape == (50000, 1)
    assert np.all(np.abs(y) > 1.0)
    assert abs(np.mean(np.sign(y))) < 0.02


# the exit law from an interior point x of the unit ball: one jump of the
# sampler that ball walkers take, against a quadrature of the density
# ((1 - r^2) / (|y|^2 - 1))^s |x - y|^-N that shares no code with it
OFF_CENTRE_R = [0.3, 0.9, 0.999]
OFF_CENTRE_S = [0.3, 0.5, 0.8]


def _within_4_sigma(hits, p, n):
    return abs(np.count_nonzero(hits) - n * p) <= 4.0 * np.sqrt(n * p * (1 - p))


@pytest.mark.parametrize("r", OFF_CENTRE_R)
@pytest.mark.parametrize("s", OFF_CENTRE_S)
def test_off_centre_exit_law_matches_the_polar_quadrature(s, r):
    n = 200000
    xhat = np.array([np.cos(0.7), np.sin(0.7)])
    rng = np.random.Generator(np.random.Philox(key=[49, int(1e4 * (r + s))]))
    pairs = _paired_exit_points(s, r * xhat, n, rng)
    # the first walkers of the n pairs, then the second walkers of the same
    # pairs: each walker of a pair follows the exit law on its own
    for y in (pairs[0::2], pairs[1::2]):
        rad = np.hypot(y[:, 0], y[:, 1])
        # far exits, and exits within pi/4 of the start point's direction
        assert _within_4_sigma(rad > 2.0, off_centre_exit_prob(s, r, 2.0), n)
        assert _within_4_sigma(y @ xhat > np.cos(np.pi / 4) * rad,
                               off_centre_exit_prob(s, r, 1.0, np.pi / 4), n)


@pytest.mark.parametrize("r", OFF_CENTRE_R)
@pytest.mark.parametrize("s", OFF_CENTRE_S)
def test_off_centre_exit_side_1d_matches_the_quadrature(s, r):
    n = 200000
    rng = np.random.Generator(np.random.Philox(key=[50, int(1e4 * (r + s))]))
    y = _exit_points(s, [-r], n, rng)[:, 0]
    assert np.all(np.abs(y) >= 1.0 - 1e-15)
    assert _within_4_sigma(y < 0.0, exit_side_prob_1d(s, r), n)


def test_exit_points_from_the_centre_are_pinned():
    # the draws of the sampler before it took a start point
    rng = np.random.Generator(np.random.Philox(key=48))
    assert _exit_points(0.5, [0.0, 0.0], 3, rng).tolist() == [
        [0.8861668355759369, -0.7451515473011773],
        [-0.1204915861810411, 1.1107143960827794],
        [-0.014800301387745424, 1.253155764948618]]


@pytest.mark.parametrize("dim", [1, 2])
def test_an_infinite_exit_radius_jumps_to_infinity_without_warnings(dim):
    # at small s a Beta draw W = 0 is R0 = inf: rho = inf, the direction z
    class Infinite:
        s = 0.01

        @staticmethod
        def radius(slot, rng):
            return np.full(len(slot), np.inf)

    with np.errstate(all="raise"):
        y = fraclab.wos._ball_exit(Infinite, np.full(dim, 0.45), 2.0, 6,
                                   np.random.default_rng(0))
    assert np.all(np.isinf(y))


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
    # only for s > 1/2; at s = 1/2 solve refuses it.  From the centre the
    # full ball exits in one jump, and the two walkers of an antithetic
    # pair land at opposite points
    k = make_fractional_laplacian(0.75, 2)
    pairs = solve(BALL, coordinate_data(0), [0.0, 0.0], k,
                  WoSConfig(paths=20000, seed=2))
    assert pairs.estimate == 0.0 and pairs.stderr == 0.0


def test_matches_poisson_quadrature():
    g = capped_distance_data([2.0, 0.0], 3.0)
    x = [0.3, 0.0]
    out = solve(BALL, g, x, K05, WoSConfig(paths=200000, seed=3))
    v, e = ball_poisson(BALL, g, x, 0.5)
    assert abs(out.estimate - v) <= 3.0 * (out.stderr + e)


@pytest.mark.parametrize("x", [
    [0.5, 0.3], [-0.2, -0.7], 0.9 * np.array([np.cos(2.0), np.sin(2.0)]),
    (1.0 - 1e-3) * np.array([np.cos(2.0), np.sin(2.0)])],
    ids=["inner", "outer", "depth-0.1", "depth-1e-3"])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_ball_walks_off_centre_match_poisson_quadrature(s, x):
    g = capped_distance_data([2.0, 0.0], 3.0)
    out = solve(BALL, g, x, make_fractional_laplacian(s, 2),
                WoSConfig(paths=200000, seed=51))
    v, e = ball_poisson(BALL, g, x, s)
    assert abs(out.estimate - v) <= 3.0 * (out.stderr + e)


def test_ball_walkers_exit_in_one_exact_jump(monkeypatch):
    # no dist_bound, snap, projection or step budget: one radius per walker
    ball = Ball([0.3, -0.2], 2.5)
    ball.dist_bound = lambda *a: pytest.fail("a walker stepped")
    ball.project = lambda *a: pytest.fail("a walker snapped")
    monkeypatch.setattr(wos, "_BATCH_SIZE", 2048)
    draws = []
    radius = StableExitSampler.radius
    monkeypatch.setattr(StableExitSampler, "radius", lambda self, slot, rng:
                        draws.append(len(slot)) or radius(self, slot, rng))
    monkeypatch.setattr(wos, "_MAX_STEPS", 1)
    g = holder_point_singularity(0.3, [2.8, -0.2])
    out = solve(ball, g, [2.799, -0.2], K05, WoSConfig(paths=5000, seed=52))
    assert (out.mean_steps, out.steps_max) == (1.0, 1)
    assert (out.snapped_fraction, out.n_maxed, out.bias_bound) == (0.0, 0, 0.0)
    assert draws == [2048, 2048, 904]


@pytest.mark.parametrize("r", [0.5, -0.99])
def test_1d_ball_walks_off_centre_match_the_side_quadrature(r):
    k = make_fractional_laplacian(0.5, 1)
    right = ExteriorData(fn=lambda p: (p[..., 0] > 0.0).astype(float),
                         growth=0.0)
    out = solve(Ball([0.0], 1.0), right, [r], k,
                WoSConfig(paths=40000, seed=53))
    p = exit_side_prob_1d(0.5, abs(r))
    assert abs(out.estimate - (p if r > 0 else 1.0 - p)) <= 4.0 * out.stderr


# (estimate, stderr) of walks started at a ball's centre, pinned from the
# step loop, whose first step from the centre was already the exit: the
# exact jump from the centre draws and rounds the same numbers
CENTRE_PINNED = [
    (Ball([0.0, 0.0], 1.0), 0.5, WoSConfig(paths=4000, seed=12),
     2.3391850799523994, 0.008636892085596929),
    (Ball([0.3, -0.2], 2.5), 0.3, WoSConfig(paths=4000, seed=13),
     2.852970788060622, 0.0062575693641381104),
]
CENTRE_PINNED_1D = [
    (Ball([0.0], 1.0), 1.4879606811415695, 0.00889983367883721),
    (Ball([-0.7], 0.4), 1.2749256153913189, 0.0055634834870240835),
]


def test_ball_walks_from_the_centre_are_pinned():
    g = capped_distance_data([2.0, 0.0], 3.0)
    for ball, s, cfg, est, se in CENTRE_PINNED:
        out = solve(ball, g, ball.center, make_fractional_laplacian(s, 2), cfg)
        assert (out.estimate, out.stderr) == (est, se)
    g1 = ExteriorData(fn=lambda p: np.minimum(np.abs(p[..., 0] - 0.5), 2.0),
                      alpha=1.0, C0=1.0, growth=0.0)
    for ball, est, se in CENTRE_PINNED_1D:
        out = solve(ball, g1, ball.center, make_fractional_laplacian(0.5, 1),
                    WoSConfig(paths=4000, seed=15))
        assert (out.estimate, out.stderr) == (est, se)


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
    """Walks whose steps use a fraction (kappa in the walk-on-spheres
    literature) of the certified distance agree with each other and with
    the full ball, which takes the fewest steps."""
    g = capped_distance_data([2.0, 0.0], 3.0)
    x = [0.2, 0.1]
    a = solve(SmallerBalls(DISC, 0.5), g, x, K05,
              WoSConfig(paths=100000, seed=5))
    b = solve(SmallerBalls(DISC, 0.25), g, x, K05,
              WoSConfig(paths=100000, seed=6))
    assert abs(a.estimate - b.estimate) <= 3.0 * (a.stderr + b.stderr)
    # the exit law is exact for every ball inside the domain, and dist_bound
    # is a lower bound on the distance: the full ball is as unbiased as half
    star = StarShaped([1.0, 0.0, 0.1])
    for dom, x in ((DISC, [0.2, 0.1]), (unit_square(), [0.1, 0.3]),
                   (star, [0.7, 0.3])):
        full = solve(dom, g, x, K05, WoSConfig(paths=100000, seed=5))
        half = solve(SmallerBalls(dom, 0.5), g, x, K05,
                     WoSConfig(paths=100000, seed=6))
        assert full.mean_steps < half.mean_steps
        assert abs(full.estimate - half.estimate) \
            <= 3.0 * (full.stderr + half.stderr)


def test_snap_bias_controlled(monkeypatch):
    g = holder_point_singularity(0.3, [1.0, 0.0])
    x = [0.9, 0.0]
    base_eps = 1e-6 * DISC.diameter
    a = solve(DISC, g, x, K05, WoSConfig(paths=100000, seed=7))
    monkeypatch.setattr(wos, "_SNAP_REL", 2.0 * wos._SNAP_REL)
    b = solve(DISC, g, x, K05, WoSConfig(paths=100000, seed=8))
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
    ball3.contains = lambda *a: pytest.fail("a walker started")
    with pytest.raises(ParameterError, match="dim"):
        solve(ball3, constant_data(1.0), [0.1, 0.0, 0.0],
              make_fractional_laplacian(0.5, 3), WoSConfig(paths=10))


@pytest.mark.parametrize("kwargs, message", [
    ({"paths": 0}, "paths must be an int >= 1, got 0"),
    ({"paths": -3}, "paths must be an int >= 1, got -3"),
    ({"paths": 2.5}, "paths must be an int >= 1, got 2.5"),
    ({"paths": 1000.0}, "paths must be an int >= 1, got 1000.0"),
    ({"paths": True}, "paths must be an int >= 1, got True"),
    ({"seed": 1.5}, "seed must be an int in [0, 2^64), got 1.5"),
    ({"seed": -1}, "seed must be an int in [0, 2^64), got -1"),
    ({"seed": 2 ** 64}, f"seed must be an int in [0, 2^64), got {2 ** 64}"),
    ({"seed": False}, "seed must be an int in [0, 2^64), got False"),
], ids=["paths=0", "paths=-3", "paths=2.5", "paths=1000.0", "paths=True",
        "seed=1.5", "seed=-1", "seed=2**64", "seed=False"])
def test_config_refuses_each_bad_setting_by_name(kwargs, message):
    # refused when the settings are built, before any path walks: a float
    # path count died as a bare TypeError in the engine, seed 1.5 walked
    # seed 1's streams, seed -1 walked after a numpy cast warning and seed
    # 2^64 raised a bare OverflowError
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        WoSConfig(**kwargs)


def test_config_takes_the_ends_of_its_ranges():
    # the largest seed and point index fill their Philox key words
    cfg = WoSConfig(paths=np.int64(2), seed=(1 << 64) - 1)
    out = solve(BALL, constant_data(1.0), [0.0, 0.0], K05, cfg,
                point_index=(1 << 32) - 1)
    assert (out.estimate, out.paths_used) == (1.0, 2)


@pytest.mark.parametrize("index", [1 << 32, -1, 1.0, True])
def test_solve_refuses_a_point_index_outside_its_key_word(index):
    # the Philox key word is (index << 32) + b: index 2^32 raised a bare
    # OverflowError
    with pytest.raises(ParameterError,
                       match=r"^a point index must be an int in \[0, 2\^32\), "
                             f"got {re.escape(repr(index))}$"):
        solve(BALL, constant_data(1.0), [0.0, 0.0], K05,
              WoSConfig(paths=10), point_index=index)


def test_even_batches_walk_the_rounded_paths(monkeypatch):
    monkeypatch.setattr(wos, "_BATCH_SIZE", 4)
    out = solve(BALL, constant_data(1.0), [0.0, 0.0], K05,
                WoSConfig(paths=11, seed=1))
    assert out.paths_used == 12


@pytest.mark.parametrize("paths, one_pair", [(1, True), (2, True),
                                             (3, False)])
def test_stderr_of_one_estimator_unit_is_nan(paths, one_pair):
    # the estimator unit is an antithetic pair; 3 paths round up to 2 pairs
    out = solve(BALL, capped_distance_data([2.0, 0.0], 3.0), [0.3, 0.0], K05,
                WoSConfig(paths=paths, seed=1))
    assert np.isnan(out.stderr) == one_pair
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


def test_reliability_error_on_tiny_step_budget(monkeypatch):
    # off centre: from the centre the full disc exits in one jump
    monkeypatch.setattr(wos, "_MAX_STEPS", 1)
    g = constant_data(1.0)
    with pytest.raises(ReliabilityError):
        solve(DISC, g, [0.9, 0.0], K05, WoSConfig(paths=1000, seed=1))


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
    (BALL, [0.6, -0.7]),
    (unit_square(), [0.5, 0.5]),
    (StarShaped([1.0, 0.0, 0.1]), [0.0, 0.0]),
], ids=["ball", "ball-off-centre", "square", "star"])
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
    ball.contains = lambda *a: pytest.fail("a walker started")
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
    monkeypatch.setattr(fraclab.wos, "_ball_exit",
                        lambda *a: pytest.fail("a walker started"))
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
    (StarShaped([1.0]), [0.9, 0.0], 16),   # some walkers hit max_steps
    (unit_square(), [0.02, 0.5], 1000),
    (StarShaped([1.0, 0.0, 0.1]), [0.95, 0.05], 1000),
], ids=["disc", "square", "star"])
def test_one_projection_and_one_datum_call_per_batch(dom, x, max_steps,
                                                     monkeypatch):
    monkeypatch.setattr(wos, "_MAX_STEPS", max_steps)
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
    out = solve(dom, g, x, K05, WoSConfig(paths=4000, seed=3))
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
    half = solve(SmallerBalls(StarShaped([1.0]), 0.5), far, [0.0, 0.0], K05,
                 WoSConfig(paths=40000, seed=31))
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
    full = solve(Ball([0.0], 1.0), far, [0.0], k,
                 WoSConfig(paths=40000, seed=3))
    assert full.mean_steps == 1.0 and full.steps_max == 1
    assert full.snapped_fraction == 0.0
    assert abs(full.estimate - tail) <= 4.0 * full.stderr


def test_bias_bound_counts_max_steps_walkers(monkeypatch):
    g = holder_point_singularity(0.3, [1.0, 0.0])
    monkeypatch.setattr(wos, "_MAX_STEPS", 16)
    out = solve(DISC, g, [0.9, 0.0], K05, WoSConfig(paths=4000, seed=3))
    assert 0 < out.n_maxed <= 0.01 * out.paths_used
    assert out.steps_max == 16
    snap_only = g.C0 * (1e-6 * DISC.diameter) ** g.alpha
    assert out.bias_bound > snap_only
    monkeypatch.undo()
    done = solve(DISC, g, [0.9, 0.0], K05, WoSConfig(paths=4000, seed=3))
    assert done.n_maxed == 0 and 0 < done.steps_max < 1000
    assert done.bias_bound == pytest.approx(snap_only, rel=1e-15)


def test_walkers_within_snap_eps_after_the_last_step_ran_out_of_steps(
        monkeypatch):
    # from depth 0.1 with snap_eps = 0.05 many walkers land within snap_eps
    # on the last allowed step: they count in n_maxed (paid at their
    # projection), they do not snap; pinned from the loop that tested for
    # snaps at the top of each step, so none followed the last one.  On the
    # unit Ball, which walked the loop before it took one exact jump, the
    # counts were the same and the bias bound 0.41165700400372124: the
    # disc's nearest-point solve rounds the projections differently
    g = holder_point_singularity(0.3, [1.0, 0.0])
    cfg = WoSConfig(paths=4000, seed=3)
    # the disc's diameter is 2, so snap_eps is 0.05
    monkeypatch.setattr(wos, "_SNAP_REL", 0.025)
    monkeypatch.setattr(wos, "_MAX_STEPS", 2)
    with pytest.raises(ReliabilityError,
                       match=r"^1413 of 4000 paths hit max_steps = 2$"):
        solve(DISC, g, [0.9, 0.0], K05, cfg)
    monkeypatch.setattr(wos, "_MAX_STEPS", 8)
    out = solve(DISC, g, [0.9, 0.0], K05, cfg)
    assert (out.n_maxed, out.steps_max) == (31, 8)
    assert out.snapped_fraction == 0.29325
    assert out.bias_bound == 0.4116570040037295


class CountingDisc(StarShaped):
    """A unit disc that counts the rows its dist_bound is handed."""
    rows = 0

    def dist_bound(self, x, exact_below=0.0):
        self.rows += len(x)
        return super().dist_bound(x, exact_below)


@pytest.mark.parametrize("batch_size, n_batches", [(1 << 15, 1), (1000, 4)])
def test_dist_bound_gets_one_start_row_per_batch_and_one_row_per_step(
        monkeypatch, batch_size, n_batches):
    # every walker of a batch starts at x: one row serves them all (the
    # batch handed dist_bound a copy of x per walker)
    monkeypatch.setattr(wos, "_BATCH_SIZE", batch_size)
    disc = CountingDisc([1.0])
    out = solve(disc, capped_distance_data([2.0, 0.0], 3.0), [0.5, 0.2], K05,
                WoSConfig(paths=4000, seed=1))
    steps = round(out.paths_used * out.mean_steps)
    assert disc.rows == n_batches + steps


# seeded estimates and stderrs of the benchmark's square-corner and star
# problems at 2000 paths.  Square walks step on the exact distance, so how a
# step queries the geometry may change, these values may not.  Star walks
# step on StarShaped.dist_bound, a lower bound on the distance (smaller
# steps, new streams); they are pinned at the values of that walk.  Both are
# drawn from the exact Beta exit law, one radius and one angle per live
# antithetic pair and step, from the whole ball of radius dist_bound.  The
# first two star points lie deep in the star's core disc and are walked
# with the core control variate: a first jump from the core, paid
# g(X) - g(Y) plus the core's exit integral.
SQUARE_PINNED = [
    (1e-4, 0.4390189967319075, 0.0017540619800195266),
    (1e-2, 0.6875819807078501, 0.0025567818756747685),
]
STAR_PINNED = [
    (0.3, 0.5, 1.9066085508076152, 0.00912111305454965),
    (1.2, 0.05, 2.0047267864528333, 0.006791093028032461),
    (2.0, 1e-3, 2.541356854768978, 0.0034479964093032216),
]
# the stderrs of the same walks from variance sums not shifted by the first
# estimator unit, which agree with the pins above to the last few bits
SQUARE_UNSHIFTED_STDERR = [0.0017540619800195073, 0.002556781875674718]
STAR_UNSHIFTED_STDERR = [0.009121113054549683, 0.006791093028032564,
                         0.003447996409303188]
# the same walks when the core quadrature's radial panels were geometric
# in rho (the control walks pay its value, so only their estimates moved)
STAR_GEOMETRIC_IN_RHO = [
    (0.3, 0.5, 1.9066085615284005, 0.009121113054549648),
    (1.2, 0.05, 2.0047267852799355, 0.006791093028032461),
    (2.0, 1e-3, 2.541356854768978, 0.0034479964093032216),
]
# the star problems walked plainly, with no control variate: the pins
# before the core jump (the third point lies outside the core and walks
# the same streams both ways)
STAR_PLAIN = [
    (0.3, 0.5, 1.9459887458000558, 0.017055642812213265),
    (1.2, 0.05, 1.9924751800495646, 0.010750649131069519),
    (2.0, 1e-3, 2.541356854768978, 0.0034479964093032216),
]
# the star problems walked when dist_bound took the best of four fixed
# splits lam = 1/16, 1/8, 1/4, 1/2 of its cone bound at every point
STAR_FOUR_SPLIT = [
    (0.3, 0.5, 1.9347995787827152, 0.017169540867107046),
    (1.2, 0.05, 1.9847520227312179, 0.011138727920048726),
    (2.0, 1e-3, 2.5389216510324037, 0.003541029025753007),
]
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


def test_star_pins_agree_with_plain_walks():
    for new, old in zip(STAR_PINNED, STAR_PLAIN):
        assert new[:2] == old[:2]
        assert abs(new[2] - old[2]) <= 4.0 * np.hypot(new[3], old[3])
    assert STAR_PINNED[2] == STAR_PLAIN[2]


def test_star_pins_agree_with_walks_on_the_core_rule_geometric_in_rho():
    for new, old in zip(STAR_PINNED, STAR_GEOMETRIC_IN_RHO):
        assert new[:2] == old[:2]
        assert abs(new[2] - old[2]) <= 4.0 * np.hypot(new[3], old[3])
    assert STAR_PINNED[2] == STAR_GEOMETRIC_IN_RHO[2]


def test_star_pins_agree_with_exact_distance_walks():
    for new, old in zip(STAR_PINNED, STAR_EXACT_STEPS):
        assert new[:2] == old[:2]
        assert abs(new[2] - old[2]) <= 4.0 * np.hypot(new[3], old[3])


def test_star_pins_agree_with_four_split_walks():
    for new, old in zip(STAR_PINNED, STAR_FOUR_SPLIT):
        assert new[:2] == old[:2]
        assert new[2] != old[2]
        assert abs(new[2] - old[2]) <= 4.0 * np.hypot(new[3], old[3])


def test_star_walks_take_no_more_steps_than_four_split_walks():
    # the mean steps of the same walks at 1e5 paths when dist_bound took
    # the best of four fixed splits: one split per point steps further
    star = StarShaped([1.0, 0.0, 0.1])
    g = capped_distance_data([2.0, 0.0], 3.0)
    four_split = (3.26109, 3.63788, 3.96186)
    for k, (th, gap, _, _) in enumerate(STAR_FOUR_SPLIT):
        x = (float(star.radial(th)) - gap) * np.array([np.cos(th), np.sin(th)])
        out = solve(star, g, x, K05, WoSConfig(paths=100000, seed=5),
                    point_index=k)
        assert out.mean_steps < four_split[k]


def test_star_walks_solve_nearest_points_in_project_and_at_the_snap_threshold(
        monkeypatch):
    # the benchmark's star solves: the nearest-point solver runs once per
    # batch in project, and in dist_bound only on the rows at the snap
    # threshold that its bounds leave open, whose distance is within 10% of
    # snap_eps (dist_bound ran it 38 times on 265 rows here when every row
    # below snap_eps took it, and project solved the snapped rows again;
    # 6 times on 6 rows before the first two points jumped from the core)
    star = StarShaped([1.0, 0.0, 0.1])
    snap_eps = 1e-6 * star.diameter
    calls = {"project": [], "dist_bound": []}
    nearest = StarShaped._nearest

    def counted(self, pts):
        out = nearest(self, pts)
        caller = sys._getframe(1).f_code.co_name
        calls[caller].append(len(pts))
        if caller == "dist_bound":
            assert np.all(np.abs(out[2] / snap_eps - 1.0) < 0.1)
        return out

    monkeypatch.setattr(StarShaped, "_nearest", counted)
    g = capped_distance_data([2.0, 0.0], 3.0)
    for k, (th, gap) in enumerate([(0.3, 0.5), (1.2, 0.05), (2.0, 1e-3)]):
        x = (float(star.radial(th)) - gap) * np.array([np.cos(th), np.sin(th)])
        solve(star, g, x, K05, WoSConfig(paths=10000, seed=1), point_index=k)
    assert len(calls["project"]) == 3           # one batch per point
    assert (len(calls["dist_bound"]), sum(calls["dist_bound"])) == (4, 4)


def test_square_profile_edge_pass_rows_pinned(tmp_path, monkeypatch):
    # the benchmark's square-corner profile: dist_bound sends no row to the
    # edge pass (2,046 of its 5,132 rows did when every row below snap_eps
    # took it; project passes the same rows again).  signed_dist passes
    # the 1,024 probes of the inward normal and z0, whose distance to the
    # boundary the profile checks first
    rows = {}
    edge_pass = Polygon._edge_pass

    def counted(self, pts):
        caller = sys._getframe(1).f_code.co_name
        rows[caller] = rows.get(caller, 0) + len(pts)
        return edge_pass(self, pts)

    monkeypatch.setattr(Polygon, "_edge_pass", counted)
    from fraclab.cli import run
    assert run(["--threads", "1", "profile", "--domain", "square", "--data",
                '{"name": "holder_point_singularity", "alpha": 0.1, '
                '"z0": [0.0, 0.0]}', "--tmin", "1e-4", "--tmax", "1e-2",
                "--n", "8", "--paths", "10000", "--seed", "1",
                "--out", str(tmp_path / "square.csv")]) == 0
    assert "dist_bound" not in rows
    assert rows["signed_dist"] == 1025
    assert sum(rows.values()) == 3087


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


# the benchmark's star points (theta, radial gap) and square-corner depths
STAR = StarShaped([1.0, 0.0, 0.1])
STAR_POINTS = [(float(STAR.radial(th)) - gap) * np.array([np.cos(th),
                                                          np.sin(th)])
               for th, gap in ((0.3, 0.5), (1.2, 0.05), (2.0, 1e-3))]
BISECTOR = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)])
PACKED_CASES = {
    "star": (STAR, capped_distance_data([2.0, 0.0], 3.0), STAR_POINTS),
    "square": (unit_square(), holder_point_singularity(0.1, [0.0, 0.0]),
               [t * BISECTOR for t in np.geomspace(1e-4, 1e-2, 8)]),
    # a notched pentagon: the vertex (1, 0.8) is reflex
    "notched": (Polygon([[0, 0], [2, 0], [2, 2], [1, 0.8], [0, 2]]),
                capped_distance_data([2.5, 1.0], 3.0),
                [[0.5, 0.5], [1.5, 0.4], [1.0, 0.3], [0.2, 1.5]]),
    "ball": (Ball([0.1, 0.0], 1.0), capped_distance_data([2.0, 0.0], 3.0),
             [[0.0, 0.0], [0.5, 0.3], [-0.8, 0.0]]),
}


@pytest.mark.parametrize("paths, batch_size", [
    (10000, 1 << 15), (40001, 1 << 15), (70000, 1 << 15), (10000, 1000),
    (40001, 1000)])
@pytest.mark.parametrize("case", sorted(PACKED_CASES))
def test_solve_points_equal_a_loop_of_solve(monkeypatch, case, paths,
                                            batch_size):
    # streams of several points share walk batches; every walker draws the
    # numbers it draws walked alone, so each sample equals solve's in every
    # field, bit for bit
    monkeypatch.setattr(wos, "_BATCH_SIZE", batch_size)
    dom, g, pts = PACKED_CASES[case]
    cfg = WoSConfig(paths=paths, seed=7)
    indices = [3 * k + 1 for k in range(len(pts))]
    packed = wos.solve_points(dom, g, pts, K05, cfg, indices)
    assert packed == [solve(dom, g, x, K05, cfg, point_index=i)
                      for x, i in zip(pts, indices)]


@pytest.mark.parametrize("dom, x, g, named", [
    (BALL, [0.5, 0.0], holder_point_singularity(0.3, [1.0, 0.0, 0.0]),
     r"holder_point_singularity\(0\.3, \[1\.0, 0\.0, 0\.0\]\) declares "
     r"singular_points point \[1\.0, 0\.0, 0\.0\]"),
    (unit_square(), [0.5, 0.5], holder_point_singularity(0.3, [1.0]),
     r"holder_point_singularity\(0\.3, \[1\.0\]\) declares singular_points"),
    (BALL, [0.5, 0.0], capped_distance_data([2.0, 0.0, 0.0], 3.0),
     r"capped_distance\(\[2\.0, 0\.0, 0\.0\], 3\.0\) declares kink_circles"),
    (STAR, [0.1, 0.2], dataclasses.replace(
        capped_distance_data([2.0, 0.0], 3.0), radial_center=(2.0,)),
     r"declares radial_center point \[2\.0\]"),
    (STAR, [0.1, 0.2], dataclasses.replace(
        holder_point_singularity(0.3, [1.0, 0.0]), power_anchor=(1.0,)),
     r"declares power_anchor point \[1\.0\]"),
], ids=["ball-3d-z0", "square-1d-z0", "ball-3d-kink", "star-radial",
        "star-anchor"])
def test_a_datum_anchored_in_another_dimension_is_refused_before_walking(
        monkeypatch, dom, x, g, named):
    # a 3-D z0 on the ball died in a bare broadcast ValueError after the
    # walk, and a 1-D z0 on the square walked |y - (1, 1)|^0.3
    for name in ("_step_batch", "_ball_exit", "_ball_poisson_level"):
        monkeypatch.setattr(wos, name,
                            lambda *a, **k: pytest.fail("a walker started"))
    with pytest.raises(ParameterError, match=named):
        solve(dom, g, x, K05, WoSConfig(paths=100))
    if isinstance(dom, Ball):
        with pytest.raises(ParameterError, match=named):
            ball_poisson(dom, g, x, 0.5)


# the benchmark's star problems at 40,000 paths and seed 11, point k on the
# streams of k, walked plainly (no control variate): (estimate, stderr)
STAR_PLAIN_40K = [
    (1.9117974454813258, 0.003768460444456791),
    (2.0071725388151958, 0.002385550523572315),
    (2.5410006157965515, 0.0007648684409860533),
]


def test_core_control_walks_agree_with_plain_walks_at_less_stderr():
    # gaps 0.5 and 0.05 lie deep in the core and take the control variate,
    # gap 1e-3 lies outside it and walks the plain streams; at equal paths
    # the control cuts the stderr by 1.75x and 1.55x
    g = capped_distance_data([2.0, 0.0], 3.0)
    out = wos.solve_points(STAR, g, STAR_POINTS, K05,
                           WoSConfig(paths=40000, seed=11))
    for o, (est, se) in zip(out, STAR_PLAIN_40K):
        assert abs(o.estimate - est) <= 4.0 * np.hypot(o.stderr, se)
    assert STAR_PLAIN_40K[0][1] / out[0].stderr >= 1.6
    assert STAR_PLAIN_40K[1][1] / out[1].stderr >= 1.35
    assert (out[2].estimate, out[2].stderr) == STAR_PLAIN_40K[2]
    assert out[2].control_err is None
    # the core quadrature's error estimate adds to the bias bound
    snap = g.C0 * (wos._SNAP_REL * STAR.diameter) ** g.alpha
    for o in out[:2]:
        assert 0.0 < o.control_err < 1e-5 and o.n_maxed == 0
        assert o.bias_bound == pytest.approx(snap + o.control_err, rel=1e-12)


@pytest.mark.parametrize("paths, batch_size, n_batches", [
    (2000, 1 << 15, 1), (4000, 1000, 4)])
def test_a_core_point_makes_one_datum_call_per_walk_batch(
        monkeypatch, paths, batch_size, n_batches):
    # X and Y are paid together, beyond the core quadrature's own calls
    monkeypatch.setattr(wos, "_BATCH_SIZE", batch_size)
    calls = [0]
    base = capped_distance_data([2.0, 0.0], 3.0)

    def counted(pts):
        calls[0] += 1
        return base.fn(pts)

    g = dataclasses.replace(base, fn=counted)
    x = STAR_POINTS[0]
    ball_poisson(STAR.core, g, x, 0.5)
    quadrature, calls[0] = calls[0], 0
    out = solve(STAR, g, x, K05, WoSConfig(paths=paths, seed=3))
    assert out.control_err is not None
    assert calls[0] == quadrature + n_batches


def test_a_core_walk_of_a_constant_datum_pays_the_constant():
    # g(X) - g(Y) is 0 and the core quadrature is exact for a constant, so
    # every walker pays it; the core jump counts as a step
    out = solve(STAR, constant_data(2.5), [0.1, 0.2], K05,
                WoSConfig(paths=2000, seed=3))
    assert out.control_err == pytest.approx(0.0, abs=1e-12)
    assert out.estimate == pytest.approx(2.5, abs=1e-12)
    assert out.stderr == pytest.approx(0.0, abs=1e-12)
    assert out.mean_steps >= 1.0 and out.steps_max >= 2


def test_only_points_deep_in_the_core_take_the_control(monkeypatch):
    # a point closer than _CORE_DEPTH core radii to the core's circle walks
    # plainly, where the core quadrature's error estimate may not cover
    core = STAR.core
    depth = wos._CORE_DEPTH * core.radius
    g = capped_distance_data([2.0, 0.0], 3.0)
    cfg = WoSConfig(paths=200, seed=3)
    inner = np.array([core.radius - 1.01 * depth, 0.0])
    outer = np.array([core.radius - 0.99 * depth, 0.0])
    assert solve(STAR, g, inner, K05, cfg).control_err is not None
    assert solve(STAR, g, outer, K05, cfg).control_err is None


class CountingStar(StarShaped):
    """The benchmark's star, counting its dist_bound calls and the largest
    row count of one, and its project calls."""
    dist_bound_calls = project_calls = most_rows = 0

    def dist_bound(self, x, exact_below=0.0):
        self.dist_bound_calls += 1
        self.most_rows = max(self.most_rows, len(x))
        return super().dist_bound(x, exact_below)

    def project(self, x):
        self.project_calls += 1
        return super().project(x)


def test_solve_points_walk_the_benchmark_star_in_one_step_loop():
    # its three points of 10,000 paths pack into one walk batch: one
    # project call, one dist_bound call for the start rows and one per
    # step (each point walking its own loop made about 90 calls).  The
    # start rows are the landing points of the 20,000 core jumps of the
    # first two points and one row for the third (30,000 rows, all walkers
    # at the first step, before the core jump)
    star = CountingStar([1.0, 0.0, 0.1])
    out = wos.solve_points(star, capped_distance_data([2.0, 0.0], 3.0),
                           STAR_POINTS, K05, WoSConfig(paths=10000, seed=1))
    assert star.project_calls == 1
    assert star.dist_bound_calls <= 3 + max(o.steps_max for o in out)
    assert star.most_rows == 20001


def test_last_streams_of_all_points_share_a_walk_batch():
    # 40,001 paths round up to 40,002: streams of 32,768 and 7,234 walkers
    # per point, and the three short streams share one walk batch, so the
    # three points walk 4 batches, with one project call each
    star = CountingStar([1.0, 0.0, 0.1])
    g = capped_distance_data([2.0, 0.0], 3.0)
    cfg = WoSConfig(paths=40001, seed=1)
    out = wos.solve_points(star, g, STAR_POINTS, K05, cfg)
    assert star.project_calls == 4
    assert out == [solve(STAR, g, x, K05, cfg, point_index=k)
                   for k, x in enumerate(STAR_POINTS)]


@pytest.mark.parametrize("batch_size", [1 << 15, 1000])
def test_a_walk_batch_holds_at_most_batch_size_walkers(monkeypatch,
                                                       batch_size):
    # eight square-corner depths of 10,000 paths are 80,000 walkers; no
    # walk batch holds more than _BATCH_SIZE of them
    monkeypatch.setattr(wos, "_BATCH_SIZE", batch_size)
    rows = []
    sq = unit_square()
    dist_bound = sq.dist_bound
    sq.dist_bound = lambda x, e=0.0: rows.append(len(x)) or dist_bound(x, e)
    dom, g, pts = PACKED_CASES["square"]
    wos.solve_points(sq, g, pts, K05, WoSConfig(paths=10000, seed=1))
    assert max(rows) == (30000 if batch_size == 1 << 15 else 1000)


@pytest.mark.parametrize("dom, pts", [
    (STAR, [[0.1, 0.0], [0.0, 0.2], [1.5, 0.25]]),
    (BALL, [[0.1, 0.0], [0.0, 0.2], [1.5, 0.25]]),
    # the third point lies in the notch, above the reflex vertex (1, 0.8)
    (PACKED_CASES["notched"][0], [[0.5, 0.5], [1.5, 0.4], [1.0, 1.5]]),
], ids=["star", "ball", "notched"])
def test_solve_points_refuse_an_exterior_point_by_name_before_walking(
        monkeypatch, dom, pts):
    # the first points walked before the third was refused, by a message
    # that named no point
    monkeypatch.setattr(wos, "_step_batch",
                        lambda *a: pytest.fail("a walker started"))
    monkeypatch.setattr(wos, "_ball_exit",
                        lambda *a: pytest.fail("a walker started"))
    with pytest.raises(DomainError, match=re.escape(
            f"point 9 at {pts[2]} is not interior")):
        wos.solve_points(dom, capped_distance_data([2.0, 0.0], 3.0), pts,
                         K05, WoSConfig(paths=100), [4, 5, 9])


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


BALL_PINNED_CASES = [
    (capped_distance_data([2.0, 0.0], 3.0), [0.0, 0.0], 0.5),
    (capped_distance_data([2.0, 0.0], 3.0), [0.3, -0.5], 0.5),
    (holder_point_singularity(0.3, [1.0, 0.0]), [0.99, 0.0], 0.5),
]
# ball_poisson's values at BALL_PINNED_CASES, on radial panels graded in
# rho - R
BALL_PINNED = [2.343485511432193, 2.121894544817905, 0.5000822861809074]
# (value, err_estimate) at the same cases when the radial rule put 16 (coarse)
# and 24 (fine) fixed panels geometric in rho beyond an edge layer of width
# R; its estimate fell short of its error at the centre, where it read
# 2.34347557 against the exit-law oracle's 2.34348611
BALL_GEOMETRIC_IN_RHO = [
    (2.343475571157333, 2.744788293096434e-06),
    (2.121894653230526, 1.709934638016719e-05),
    (0.5000613005196028, 0.0011993030493487877),
]


@pytest.mark.parametrize("case, value",
                         list(zip(BALL_PINNED_CASES, BALL_PINNED)),
                         ids=["capped-centre", "capped-off-axis",
                              "holder-near-anchor"])
def test_ball_poisson_pinned(case, value):
    v, _ = ball_poisson(BALL, *case)
    assert v == pytest.approx(value, rel=1e-12, abs=0.0)


def test_ball_poisson_pins_agree_with_the_rule_geometric_in_rho():
    # each old value lies within the two error estimates of the new one,
    # but at the centre, where the old estimate missed the old error: there
    # the new value covers the scipy oracle and the old one does not
    from oracles import capped_ball_poisson
    for case, (old, old_err) in zip(BALL_PINNED_CASES,
                                    BALL_GEOMETRIC_IN_RHO):
        v, e = ball_poisson(BALL, *case)
        if case[1] != [0.0, 0.0]:
            assert abs(old - v) <= old_err + e
            continue
        ref, ref_err = capped_ball_poisson(case[1], case[2], 2.0, 3.0)
        assert abs(v - ref) <= e + ref_err
        assert abs(old - ref) > old_err + ref_err


# oracles.capped_ball_poisson at the unit ball's points (1 - depth) (cos a,
# sin a) for the capped datum p = (2, 0), cap 3 at s = 0.5, as (depth, a,
# value, error estimate): angle 0 faces p, and the kink circle |y - p| = 3
# touches the ball at angle pi
BALL_ORACLE = [
    (0.1, 0.0, 1.391838692384599, 8.4e-12),
    (0.1, 2.0, 2.585631652923532, 2.1e-11),
    (0.1, np.pi, 2.863932616169614, 2.5e-11),
    (0.01, 0.0, 1.109710838519584, 2.3e-14),
    (0.01, 2.0, 2.5952530860367764, 1.3e-11),
    (0.01, np.pi, 2.9589151164817804, 2.3e-11),
    (0.001, 0.0, 1.0327735477768043, 2.4e-13),
    (0.001, 2.0, 2.587349603027544, 2.4e-11),
    (0.001, np.pi, 2.987070640130357, 1.4e-11),
    (0.0001, 0.0, 1.0101553622511454, 9.1e-13),
    (0.0001, 2.0, 2.5835593199874247, 1.1e-11),
    (0.0001, np.pi, 2.995913377626376, 2.6e-11),
    (1e-05, 0.0, 1.0031900278172134, 2.3e-13),
    (1e-05, 2.0, 2.5822254160673803, 2.1e-11),
    (1e-05, np.pi, 2.9987077598835, 1.4e-11),
]
# the same oracle on the benchmark star's core ball (radius r_lo, scaled to
# the unit ball), at the star's two benchmark points deep in the core and
# at two more points, (x, value, error estimate)
CORE_ORACLE = [
    ((0.5565155674326165, 0.17215043847897699), 1.823994005335667,
     1.4e-11),
    ((0.3175198336599662, 0.8167091552057609), 1.9547857211996709,
     1.4e-11),
    ((-0.3, 0.1), 2.5053138412888925, 2.3e-11),
    ((0.58, 0.0), 1.7990412493801509, 1.3e-11),
]


def _covers(dom, x, ref, ref_err):
    # the error estimate is floored at 1e-9 |value|: a relative 1e-9 is
    # below every consumer's tolerance
    v, e = ball_poisson(dom, capped_distance_data([2.0, 0.0], 3.0), x, 0.5)
    return abs(v - ref) <= max(e, 1e-9 * abs(v)) + ref_err


@pytest.mark.parametrize("depth, angle, ref, ref_err", BALL_ORACLE)
def test_ball_poisson_error_estimate_covers_the_oracle_to_depth_1e_5(
        depth, angle, ref, ref_err):
    # the rule with panels geometric in rho missed at the 6 points from
    # depth 1e-4 on (its error reached 1.8e-2 at depth 1e-5, angle 0); with
    # no edge at each ray's closest approach to p, this rule misses at
    # depth 1e-5, angles 0 and pi (there by 17x)
    x = (1.0 - depth) * np.array([np.cos(angle), np.sin(angle)])
    assert _covers(BALL, x, ref, ref_err)


@pytest.mark.parametrize("x, ref, ref_err", CORE_ORACLE)
def test_ball_poisson_error_estimate_covers_the_oracle_in_the_star_core(
        x, ref, ref_err):
    # p lies outside the core ball, and the kink circle |y - p| = 3 keeps
    # 0.1 off it, which bounds the width of the rule's edge layer
    assert _covers(STAR.core, x, ref, ref_err)


def test_ball_oracle_table_is_the_oracle():
    from oracles import capped_ball_poisson
    x, ref, ref_err = CORE_ORACLE[2]
    v, e = capped_ball_poisson(x, 0.5, 2.0, 3.0, radius=STAR.core.radius)
    assert abs(v - ref) <= 1e-12 and e <= ref_err


def _datum_rows(dom, xs):
    """The datum rows ``ball_poisson`` evaluates at the points xs, for the
    capped datum p = (2, 0), cap 3, at s = 0.5, counted by a spy datum."""
    rows = [0]
    base = capped_distance_data([2.0, 0.0], 3.0)

    def counted(pts):
        rows[0] += len(pts)
        return base.fn(pts)

    g = dataclasses.replace(base, fn=counted)
    for x in xs:
        ball_poisson(dom, g, x, 0.5)
    return rows[0]


def test_ball_poisson_node_budget():
    # the benchmark's 4 ball points, (1 - depth) e^{i k pi / 4}, read
    # 289,664 rows, and its 2 star points deep in the core 104,192; the rule
    # with panels geometric in rho read 435,584 and 180,608
    pe_ball = [(1.0 - depth) * np.array([np.cos(k * np.pi / 4),
                                         np.sin(k * np.pi / 4)])
               for depth, k in ((0.5, 2), (0.1, 1), (1e-2, 3), (1e-3, 4))]
    assert _datum_rows(BALL, pe_ball) <= 320000
    assert _datum_rows(STAR.core, STAR_POINTS[:2]) <= 120000


@pytest.mark.parametrize("x", [[[0.1, 0.2]], [0.1], [np.nan, 0.5],
                               [0.0, np.inf], [0.0, 0.5, 1.0]],
                         ids=["nested", "short", "nan", "inf", "three"])
def test_ball_poisson_refuses_a_point_that_is_not_a_finite_2_vector(
        monkeypatch, x):
    # the nested point raised a bare IndexError
    monkeypatch.setattr(fraclab.wos, "_ball_poisson_level",
                        lambda *a, **k: pytest.fail("a level ran"))
    with pytest.raises(ParameterError, match=r"ball_poisson needs x as a "
                                             r"finite 2-vector"):
        ball_poisson(BALL, constant_data(1.0), x, 0.5)

@pytest.mark.parametrize("x, s, value", [
    ([0.0, 1e-3], 0.5, 0.14110339974378966),
    ([0.7, 0.05], 0.5, 0.8657308164161771),
    ([-1.5, 0.3], 0.3, 0.9906028121656738),
])
def test_halfplane_poisson_pinned(x, s, value):
    v, _ = halfplane_poisson(counterexample_min_rs_1(s), x, s)
    assert v == pytest.approx(value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("origin", [[0.0, 0.0], [0.3, -0.2]])
def test_ray_circle_roots_of_a_ray_do_not_depend_on_the_batch(origin):
    # a kink circle off the axes: with b = dirs @ v, a BLAS product, 80 of
    # these 1,472 rays from the origin got other roots alone than in the
    # batch
    phis = np.linspace(0.0, 2.0 * np.pi, 1472, endpoint=False)
    dirs = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    origin, center = np.array(origin), np.array([1.7, 0.9])
    batch = wos._ray_circle_roots(origin, dirs, center, 1.5, 1.0, 16.0)
    assert np.count_nonzero(np.any(batch < 16.0, axis=1)) > 400
    for k in range(len(dirs)):
        alone = wos._ray_circle_roots(origin, dirs[k:k + 1], center, 1.5,
                                      1.0, 16.0)
        np.testing.assert_array_equal(alone[0], batch[k])


@pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_halfplane_normalisation_is_the_closed_form(s):
    # the 2-D rule's integral of g == 1 at x2 = 1 is pi^2 / sin(pi s), the
    # constant that halfplane_poisson divides by
    ones = lambda z: np.ones(np.asarray(z).shape[0])
    raw = fraclab.wos._halfplane_raw(ones, 0.0, 1.0, s,
                                     *fraclab.wos._HALFPLANE_LEVELS[1])
    assert raw == pytest.approx(np.pi ** 2 / np.sin(np.pi * s), rel=1e-9)
    v, e = halfplane_poisson(constant_data(1.0), [0.3, 0.5], s)
    assert abs(v - 1.0) <= e


@pytest.mark.parametrize("s", [0.0, 1.0, -0.2, 1.5, float("nan")])
def test_poisson_quadratures_refuse_an_order_outside_the_unit_interval(
        monkeypatch, s):
    # s = 1.5 used to reach scipy's "alpha and beta must be greater than
    # -1", and s = 1 a division by sin(pi s) = 0
    monkeypatch.setattr(fraclab.wos, "_ball_poisson_level",
                        lambda *a, **k: pytest.fail("a level ran"))
    monkeypatch.setattr(fraclab.wos, "_halfplane_raw",
                        lambda *a, **k: pytest.fail("a level ran"))
    with pytest.raises(ParameterError, match="order s"):
        halfplane_poisson(constant_data(1.0), [0.0, 0.5], s)
    with pytest.raises(ParameterError, match="order s"):
        ball_poisson(BALL, constant_data(1.0), [0.0, 0.0], s)


@pytest.mark.parametrize("x", [[0.0], [np.nan, 0.5], [0.0, np.inf],
                               [0.0, 0.5, 1.0]],
                         ids=["short", "nan", "inf", "three"])
def test_halfplane_poisson_refuses_a_point_that_is_not_a_finite_2_vector(x):
    # these raised IndexError, returned 1.0, returned nan and were accepted
    with pytest.raises(ParameterError, match="finite 2-vector"):
        halfplane_poisson(counterexample_min_rs_1(0.5), x, 0.5)


RADIAL_DATA = {"counterexample": counterexample_min_rs_1,
               "capped": lambda s: capped_distance_data([0.0, 0.0], 0.5)}


@pytest.mark.parametrize("t", [1e-5, 1e-2, 0.5, 3.0])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("name", sorted(RADIAL_DATA))
def test_halfplane_radial_path_agrees_with_the_2d_rule(name, s, t):
    g = RADIAL_DATA[name](s)
    v1, e1 = halfplane_poisson(g, [0.0, t], s)
    v2, e2 = halfplane_poisson(dataclasses.replace(g, radial_center=None),
                               [0.0, t], s)
    assert abs(v1 - v2) <= e1 + e2


def test_halfplane_radial_path_skips_the_2d_rule(monkeypatch):
    monkeypatch.setattr(fraclab.wos, "_halfplane_raw",
                        lambda *a, **k: pytest.fail("the 2-D rule ran"))
    v, _ = halfplane_poisson(counterexample_min_rs_1(0.5), [0.0, 1e-3], 0.5)
    assert v == pytest.approx(0.14110339974378966, rel=1e-12, abs=0.0)
    halfplane_poisson(capped_distance_data([0.7, 0.0], 0.5), [0.7, 0.2], 0.3)


@pytest.mark.parametrize("g, x", [
    (counterexample_min_rs_1(0.5), [1e-12, 0.1]),              # x1 != p1
    (capped_distance_data([0.0, -0.5], 0.5), [0.0, 0.1]),      # p2 != 0
    (dataclasses.replace(counterexample_min_rs_1(0.5),         # off-centre kink
                         kink_circles=(((0.0, 0.0), 1.0),
                                       ((0.5, -1.0), 0.2))), [0.0, 0.1]),
], ids=["x1", "p2", "kink"])
def test_halfplane_falls_back_to_the_2d_rule(monkeypatch, g, x):
    calls = []
    raw = fraclab.wos._halfplane_raw
    monkeypatch.setattr(fraclab.wos, "_halfplane_raw",
                        lambda *a: calls.append(1) or raw(*a))
    halfplane_poisson(g, x, 0.5)
    assert len(calls) == len(fraclab.wos._HALFPLANE_LEVELS)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_halfplane_angular_integral(s):
    from scipy.integrate import quad
    A = fraclab.wos._halfplane_angular
    n_jac = fraclab.wos._HALFPLANE_LEVELS[1][0]
    r = np.array([1e-6, 0.3, 1.0, 3.0, 1e5])
    # A(1/r) = r^2 A(r): substitute r -> 1/r in the denominator
    assert A(1.0 / r, s, n_jac) == pytest.approx(r ** 2 * A(r, s, n_jac),
                                                 rel=1e-14, abs=0.0)
    for ri, a in zip(r, A(r, s, n_jac)):
        # QUADPACK's algebraic-weight rule (QAWS) takes the phi^{-s}
        ref, _ = quad(lambda p: 2.0 * (np.sin(p) / p if p > 0 else 1.0) ** (-s)
                      / (1.0 + ri * ri + 2.0 * ri * np.sin(p)),
                      0.0, 0.5 * np.pi, weight="alg", wvar=(-s, 0.0),
                      epsabs=0.0, epsrel=1e-13, limit=200)
        assert a == pytest.approx(ref, rel=1e-12, abs=0.0)
