"""Walk-on-spheres solver for the fractional Laplacian and the Poisson-kernel
quadratures used as its deterministic counterparts.

The isotropic 2s-stable process exits a ball in one jump with a known law:
started at the center of the unit ball, the exit point has density
proportional to (|y|^2 - 1)^{-s} |y|^{-N} on |y| > 1, isotropic in angle.
In every dimension W = |y|^{-2} follows Beta(s, 1 - s) (Blumenthal, Getoor
and Ray, Trans. AMS 99, 1961), so the exit radius is drawn exactly as
W^{-1/2}.  Scale invariance of the process makes the unit-ball law exact for
every ball radius.  With exit radius 1 the same walk is Brownian
walk-on-spheres, which the polygon harmonic extension runs.
"""

from dataclasses import dataclass

import numpy as np

from ._quad import (bisect_edges, gauss_jacobi_01, gl8_panels, node_chunks,
                    periodic_edges)
from .errors import (DivergenceError, DomainError, ParameterError,
                     ReliabilityError)
from .geometry import Ball


# ---------------------------------------------------------------------------
# exit law

class StableExitSampler:
    """The exact exit-radius law of order s: r = W^{-1/2}, W ~ Beta(s, 1-s)."""

    def __init__(self, s):
        if not 0.0 < s < 1.0:
            raise ParameterError("order s must lie in (0,1)")
        self.s = float(s)

    def radius(self, slot, rng):
        """Exit radii >= 1, one per entry of the index array ``slot``:
        max(slot) + 1 radii are drawn and entry i takes radius slot[i], so
        equal slots share one radius.  At small s numpy's Beta draw gives
        W = 0 now and then (about 6e-4 of the draws at s = 0.01): that
        radius is inf, an exit at infinity, where a bounded datum pays its
        limit."""
        n = np.max(slot, initial=-1) + 1
        return (rng.beta(self.s, 1.0 - self.s, n) ** -0.5)[slot]


class BrownianExitSampler:
    """The s -> 1 limit of the exit law: Brownian motion leaves a ball on
    its sphere (Muller, Ann. Math. Stat. 27, 1956), so no radius is drawn."""
    s = 1.0

    @staticmethod
    def radius(slot, rng):
        return 1.0


def sample_ball_exit(s, dim, rng, n=1):
    """Exit points of the 2s-stable process from the unit ball started at its
    center: n points with |y| >= 1, isotropic in angle."""
    if dim not in (1, 2):
        raise ParameterError("exit sampling supports dim 1 and 2")
    r = StableExitSampler(s).radius(np.arange(n), rng)
    if dim == 1:
        sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        return (r * sign)[:, None]
    phi = rng.random(n) * 2.0 * np.pi
    return r[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)


# ---------------------------------------------------------------------------
# solver

@dataclass(frozen=True)
class WoSConfig:
    sphere_fraction: float = 1.0
    max_steps: int = 1000
    snap_eps: float | None = None   # default: 1e-6 * diameter
    paths: int = 100000
    seed: int = 0
    antithetic: bool = True
    batch_size: int = 1 << 15

    def __post_init__(self):
        if not 0.0 < self.sphere_fraction <= 1.0:
            raise ParameterError("sphere_fraction must lie in (0,1]")
        if self.paths < 1:
            raise ParameterError("paths must be >= 1")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if self.antithetic and self.batch_size % 2:
            raise ParameterError(
                "batch_size must be even with antithetic pairs")
        if self.snap_eps is not None and self.snap_eps <= 0:
            raise ParameterError("snap_eps must be positive")


@dataclass(frozen=True)
class SolutionSample:
    x: tuple
    estimate: float
    stderr: float
    paths_used: int
    mean_steps: float
    snapped_fraction: float
    bias_bound: float
    seed: int
    n_maxed: int = 0      # walkers stopped by max_steps, paid at projection
    steps_max: int = 0    # the most steps any walker took


def _declared_growth(g):
    """The payload growth the datum g declares; a ParameterError naming g
    if it declares none, as a bare callable does."""
    if not hasattr(g, "payload_growth"):
        raise ParameterError(
            f"datum g = {g!r} declares no growth: pass an ExteriorData, so "
            "that its payload can be checked to have a mean")
    return g.payload_growth


def _refuse_diverging(growth, s):
    """A DivergenceError once a datum's growth reaches 2s (see ``solve``)."""
    if growth >= 2.0 * s:
        raise DivergenceError(
            f"datum growth {growth} is not below 2s = {2.0 * s}: the "
            "exit radius has tail r^(-2s), so the payload's mean diverges")


def solve(dom, g, x, kernel, cfg=None, point_index=0):
    """Estimate the solution of the fractional Dirichlet problem at x by
    alpha-stable walk-on-spheres: ``_walk_on_spheres`` with the exact exit
    law of order s and the configured step and stream layout.  A datum
    that declares no growth raises a ParameterError, and one whose growth
    reaches 2s a DivergenceError: the exit radius has tail P(R > r) ~
    r^(-2s), so its payload has no mean."""
    if cfg is None:
        cfg = WoSConfig()
    if not dom.bounded:
        raise DomainError("walk-on-spheres requires a bounded domain")
    if kernel.name != "frac_lap":
        raise ParameterError(
            "the stable exit law is exact only for the fractional Laplacian; "
            "general kernels are exercised through the operator checks")
    if kernel.dim != dom.dim:
        raise ParameterError(
            f"kernel dim {kernel.dim} does not match the domain's dim {dom.dim}")
    if dom.dim > 2:
        raise ParameterError(
            f"walk-on-spheres steps in dim 1 or 2, not dim {dom.dim}")
    _refuse_diverging(_declared_growth(g), kernel.s)
    snap_eps = cfg.snap_eps if cfg.snap_eps is not None \
        else 1e-6 * dom.diameter
    paths = cfg.paths
    if cfg.antithetic and paths % 2:
        paths += 1
    return _walk_on_spheres(
        dom, g, x, StableExitSampler(kernel.s), cfg.sphere_fraction, snap_eps,
        cfg.max_steps, paths, cfg.batch_size, cfg.seed, point_index,
        cfg.antithetic)


def _walk_on_spheres(dom, g, x, law, kappa, snap_eps, max_steps, paths,
                     batch_size, seed, point_index=0, antithetic=False):
    """The walk-on-spheres loop behind ``solve`` and the polygon harmonic
    extension: ``paths`` walkers started at the interior point x, in
    batches of at most ``batch_size``, paid by g where they stop.

    The walkers of a batch all start at x, so one ``dom.dist_bound`` row of
    x serves them, and each step makes one ``dom.dist_bound(newpos,
    snap_eps)`` call: a walker jumps from a ball of radius kappa times that
    lower bound on the distance, to ``law.radius`` times that radius, exits
    where the bound is 0 (or NaN), and snaps to its projection where the
    distance is below snap_eps (the bound is exact there, so the snap
    decisions are those of the exact distance).  Any kappa in (0, 1] keeps
    the ball inside the domain, where the exit law is exact, so kappa = 1 is
    as unbiased as a smaller ball and takes the fewest steps.  Only the live
    walkers are carried from step to step: one compaction after each
    ``dist_bound`` call stops the exits and the snaps together, and after
    the last allowed step only the exits, so a walker that lands within
    snap_eps there has run out of steps.  Each step draws one exit radius
    and one angle phi per live unit, an antithetic pair or a single walker,
    and gathers them to the walkers; the two walkers of a pair share the
    radius and step at opposite angles.  The step direction is
    (cos phi, sin phi) in dimension two and sign(cos phi) in dimension one,
    from the same draws.
    A walker that exits, snaps or runs out of max_steps steps records where
    it stopped.  At the end of its batch one ``dom.project`` call takes
    every walker paid at its projection (snapped or stopped by max_steps),
    and one ``g`` call pays every walker; both act row by row, so a
    walker's payload does not depend on the rest of the batch.  A
    non-finite payload (an exit radius that overflowed at small s, met by a
    datum that grows) raises a ReliabilityError naming s and the count, and
    so do walkers stopped by max_steps on more than 1% of the paths.
    The estimator is unbiased up to the snap bias, which the Hoelder
    certificate of g bounds by C0 * snap_eps^alpha, plus, for the walkers
    stopped by max_steps and paid at their projection, C0 * dist^alpha of
    each over the paths walked (reported together as bias_bound).
    Path batches draw from counter-based streams keyed by (seed, point,
    batch), so results do not depend on scheduling.  The stderr is NaN
    when the run has one estimator unit (one path, or one antithetic pair).
    """
    x = np.asarray(x, dtype=float)
    if not dom.contains(x):
        raise DomainError("walk-on-spheres needs an interior starting point")
    n_batches = (paths + batch_size - 1) // batch_size
    # a draw unit is an antithetic pair (walkers 2k, 2k + 1) or one walker
    shift = 1 if antithetic else 0

    sum_pay = 0.0
    # the variance sums run over estimator units (pairs when antithetic)
    # less the first unit, so they do not cancel under a large mean
    ref = None
    sum_dev = 0.0
    sum_sq = 0.0
    n_units = 0
    n_walked = 0
    total_steps = 0
    n_snapped = 0
    n_maxed = 0
    steps_max = 0
    maxed_dist = []    # distances of the walkers stopped by max_steps

    for b in range(n_batches):
        size = min(batch_size, paths - b * batch_size)
        n_walked += size
        rng = np.random.Generator(np.random.Philox(
            key=[seed, (point_index << 32) + b]))
        # where each walker stopped, and whether it is paid at its
        # projection (snapped or stopped by max_steps) rather than there
        stop = np.empty((size, dom.dim))
        projected = np.zeros(size, dtype=bool)
        # the live walkers, their positions and their dist_bound, compacted
        # as walkers snap, exit or run out of steps
        live = np.arange(size)
        pos = np.tile(x, (size, 1))
        # every walker starts at x, so one dist_bound row serves the batch
        d = np.full(size, dom.dist_bound(x[None], snap_eps)[0])
        # an exit radius is inf where numpy's Beta draw gives W = 0 (at
        # small s), and the step and dist_bound then meet inf and NaN: such
        # a walker exits, and its payload is checked below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for step in range(max_steps + 1):
                # one compaction: a walker stays live at d >= snap_eps,
                # snaps to its projection at 0 < d < snap_eps and exits at
                # d <= 0 or NaN; after the last allowed step only exits
                # leave, and the rest ran out of steps
                inside = d > 0.0
                keep = inside if step == max_steps else d >= snap_eps
                if not np.all(keep):
                    gone = ~keep
                    stopped = live.compress(gone)
                    stop[stopped] = pos.compress(gone, axis=0)
                    projected[stopped] = inside.compress(gone)
                    live = live.compress(keep)
                    pos = pos.compress(keep, axis=0)
                    d = d.compress(keep)
                if step == max_steps or len(live) == 0:
                    break
                # rank of each walker's unit among the live units: one
                # radius and one angle per unit; the second walker of a
                # pair steps the opposite way (a negative radius)
                unit = live >> shift
                first = np.empty(len(live), dtype=bool)
                first[0] = True
                np.not_equal(unit[1:], unit[:-1], out=first[1:])
                slot = np.cumsum(first) - 1
                radius = kappa * d * law.radius(slot, rng) \
                    * (1 - 2 * (live & shift))
                phi = 2.0 * np.pi * rng.random(slot[-1] + 1)
                if dom.dim == 1:
                    pos[:, 0] += radius * np.sign(np.cos(phi))[slot]
                else:
                    pos[:, 0] += radius * np.cos(phi)[slot]
                    pos[:, 1] += radius * np.sin(phi)[slot]
                total_steps += len(live)
                steps_max = max(steps_max, step + 1)
                d = np.asarray(dom.dist_bound(pos, snap_eps))
        # the walkers still live ran out of steps
        n_maxed += len(live)
        stop[live] = pos
        projected[live] = True
        paid = np.flatnonzero(projected)
        n_snapped += len(paid)
        if len(paid):
            z0 = dom.project(stop.compress(projected, axis=0))[0]
            if len(live):
                maxed_dist.append(np.linalg.norm(
                    pos - z0[np.searchsorted(paid, live)], axis=1))
            stop[paid] = z0
        payload = np.asarray(g(stop), dtype=float)
        n_bad = np.count_nonzero(~np.isfinite(payload))
        if n_bad:
            raise ReliabilityError(
                f"{n_bad} of {size} walkers of batch {b} have a non-finite "
                f"payload at order s = {law.s}: an exit radius overflowed, "
                f"or the datum is not finite where they stopped")
        if antithetic:
            units = 0.5 * (payload[0::2] + payload[1::2])
        else:
            units = payload
        if ref is None:
            ref = float(units[0])
        dev = units - ref
        sum_pay += float(np.sum(payload))
        sum_dev += float(np.sum(dev))
        sum_sq += float(np.sum(dev * dev))
        n_units += len(units)

    if n_maxed > 0.01 * n_walked:
        raise ReliabilityError(
            f"{n_maxed} of {n_walked} paths hit max_steps = {max_steps}")

    mean = sum_pay / n_walked    # pair means average to the same value
    if n_units > 1:
        var = max(sum_sq / n_units - (sum_dev / n_units) ** 2, 0.0)
        var *= n_units / (n_units - 1)
        stderr = float(np.sqrt(var / n_units))
    else:
        stderr = float("nan")   # one estimator unit has no sample variance
    if hasattr(g, "C0"):
        maxed_mass = sum(float(np.sum(dm ** g.alpha)) for dm in maxed_dist)
        bias = g.C0 * (snap_eps ** g.alpha + maxed_mass / n_walked)
    else:
        bias = np.nan
    return SolutionSample(
        x=tuple(x.tolist()), estimate=float(mean), stderr=stderr,
        paths_used=n_walked, mean_steps=total_steps / n_walked,
        snapped_fraction=n_snapped / n_walked, bias_bound=float(bias),
        seed=seed, n_maxed=n_maxed, steps_max=steps_max)


# ---------------------------------------------------------------------------
# deterministic Poisson-kernel quadratures

def _ray_circle_roots(origin, dirs, center, radius, lo, hi):
    """Radii r in (lo, hi) with |origin + r theta - center| = radius, for
    each unit direction theta (a row of ``dirs``): two columns per direction,
    ``hi`` where there is no such root, so the roots can pad panel edges."""
    v = np.asarray(origin, dtype=float) - np.asarray(center, dtype=float)
    b = dirs @ v
    disc = b * b - (float(v @ v) - radius ** 2)
    sq = np.sqrt(np.maximum(disc, 0.0))
    roots = np.stack([-b - sq, -b + sq], axis=-1)
    ok = (disc > 0.0)[:, None] & (roots > lo) & (roots < hi)
    return np.where(ok, roots, hi)


def _ray_points(origin, dirs, rho):
    """The points origin + rho theta, shape rho.shape + (2,), for one
    direction theta (a row of ``dirs``) per row of rho."""
    out = np.empty(rho.shape + (2,))
    out[..., 0] = origin[0] + rho * dirs[:, 0, None]
    out[..., 1] = origin[1] + rho * dirs[:, 1, None]
    return out


def _radial_edges(base, origin, dirs, circles, lo, hi):
    """Panel edges along each ray: the shared ``base`` edges split at the
    rays' crossings of the datum's kink circles, one padded row per ray."""
    cols = [np.broadcast_to(base, (len(dirs), len(base)))]
    cols += [_ray_circle_roots(origin, dirs, cc, rr, lo, hi)
             for cc, rr in circles]
    return np.sort(np.concatenate(cols, axis=1), axis=1)


def _ball_poisson_level(dom, g, x, s, n_jac, mid_panels, split):
    """One resolution level of the ball Poisson quadrature; ``split`` halves
    every angular panel once more.  All rays of the level are evaluated
    together, in chunks of at most NODE_CAP radial nodes."""
    R = dom.radius
    c = dom.center
    x = np.asarray(x, dtype=float)
    v = x - c
    rx = float(np.linalg.norm(v))
    phi_x = float(np.arctan2(v[1], v[0])) if rx > 0 else 0.0
    d = R - rx
    circles = [(np.asarray(cc, dtype=float), float(rr))
               for cc, rr in getattr(g, "kink_circles", ())]
    growth = g.payload_growth

    centers = [phi_x]
    scales = [0.25 * max(d, 1e-12) / R]
    for p in getattr(g, "singular_points", ()):
        p = np.asarray(p, dtype=float)
        centers.append(float(np.arctan2(p[1] - c[1], p[0] - c[0])))
        scales.append(1e-9)
    edges = periodic_edges([centers], [scales], 2.0 * np.pi)[0]
    if split:
        edges = bisect_edges(edges)
    phis, w_phi = gl8_panels(edges)
    dirs = np.stack([np.cos(phis), np.sin(phis)], axis=1)

    r_far = max(16.0 * R, 8.0 * (rx + R))
    for cc, rr in circles:
        r_far = max(r_far, 4.0 * (np.linalg.norm(cc - c) + rr))
    # keep the Jacobi edge layer clear of the datum's kink circles
    width = R
    for cc, rr in circles:
        closest = abs(float(np.linalg.norm(cc - c)) - rr)
        if closest > R:
            width = min(width, 0.9 * (closest - R))
    width = max(width, 0.05 * R)

    # edge layer: the Jacobi rule absorbs the (rho - R)^{-s} singularity
    t_j, w_j = gauss_jacobi_01(n_jac, -s)
    rho_j = R + t_j * width
    wrho_j = width ** (1.0 - s) * w_j * (rho_j - R) ** s
    # tail via t = r_far / rho: weight t^{2s-1-growth} of the Jacobi rule
    beta = 2.0 * s - 1.0 - growth
    t_t, w_t = gauss_jacobi_01(n_jac, beta)
    rho_t = r_far / t_t
    wrho_t = w_t * (r_far / t_t ** 2) / t_t ** beta
    # mid range with panels split at the datum's kink circles
    base = np.geomspace(R + width, r_far, mid_panels)

    num = np.empty(len(phis))
    den = np.empty(len(phis))
    n_rad = 2 * n_jac + 8 * (mid_panels - 1 + 2 * len(circles))
    for rows in node_chunks(np.full(len(phis), n_rad)):
        m = len(rows)
        rho_m, w_m = gl8_panels(_radial_edges(base, c, dirs[rows], circles,
                                              R + width, r_far))
        rho = np.concatenate([np.broadcast_to(rho_j, (m, n_jac)), rho_m,
                              np.broadcast_to(rho_t, (m, n_jac))], axis=1)
        wrho = np.concatenate([np.broadcast_to(wrho_j, (m, n_jac)), w_m,
                               np.broadcast_to(wrho_t, (m, n_jac))], axis=1)
        y = _ray_points(c, dirs[rows], rho)
        dist2 = (y[..., 0] - x[0]) ** 2 + (y[..., 1] - x[1]) ** 2
        kv = wrho * ((R ** 2 - rx ** 2) / (rho ** 2 - R ** 2)) ** s * rho / dist2
        num[rows] = np.sum(kv * g(y.reshape(-1, 2)).reshape(rho.shape), axis=1)
        den[rows] = np.sum(kv, axis=1)
    return float(w_phi @ num) / float(w_phi @ den)


def ball_poisson(dom, g, x, s):
    """Direct Poisson-kernel quadrature of the fractional Dirichlet solution
    on a planar ball.

    The constant of the exit kernel is eliminated by normalizing with the
    quadrature of the kernel itself (exact value 1 for g == 1), so the
    maximum principle holds by construction.  Two resolutions provide the
    error estimate.  Returns (value, err_estimate).  A datum is checked as
    in ``solve``, before either resolution.
    """
    if not isinstance(dom, Ball) or dom.dim != 2:
        raise DomainError("ball_poisson requires a planar ball")
    x = np.asarray(x, dtype=float)
    if not dom.contains(x):
        raise DomainError("evaluation point must be interior")
    _refuse_diverging(_declared_growth(g), s)
    coarse = _ball_poisson_level(dom, g, x, s, n_jac=16, mid_panels=16,
                                 split=False)
    fine = _ball_poisson_level(dom, g, x, s, n_jac=24, mid_panels=24,
                               split=True)
    return fine, abs(fine - coarse)


# ---------------------------------------------------------------------------
# half-plane Poisson integral (the sharp log-correction example)

def _halfplane_raw(g, x1, x2, s, n_jac, mid_panels, n_seg):
    """Raw double integral of g(z) / (|z2|^s |x - z|^2) over the lower half
    plane, in polar coordinates around the corner (x1, 0).

    Writing z = corner + rho (cos th, sin th) with th in (pi, 2pi):

        raw = int |sin th|^{-s} Rad(th) dth,
        Rad(th) = int_0^inf g(z) rho^{1-s} / (rho^2 + 2 rho x2 |sin th| + x2^2) drho.

    The radial rho^{1-s} head and rho^{-1-s} tail are handled by Jacobi
    rules; the angular |sin|^{-s} endpoint singularities likewise.  All
    angles are evaluated together, in chunks of at most NODE_CAP nodes.
    """
    circles = [(np.asarray(cc, dtype=float), float(rr))
               for cc, rr in getattr(g, "kink_circles", ())]
    corner = np.array([x1, 0.0])
    t_tail, w_tail = gauss_jacobi_01(n_jac, s - 1.0)
    t_edge, w_edge = gauss_jacobi_01(n_jac, -s)

    r_far = 64.0 * max(1.0, abs(x1), x2)
    for cc, rr in circles:
        r_far = max(r_far, 4.0 * (float(np.linalg.norm(cc - corner)) + rr))
    # integrand ~ rho^{1-s} g / x2^2 near 0: mass below r_lo is negligible
    r_lo = 1e-9 * x2

    # angular panels over (pi, 2pi); the first and last use the edge Jacobi
    # rule for |sin th|^{-s}, written as tau^{-s} (sin(tau) / tau)^{-s}
    seg = np.linspace(np.pi, 2.0 * np.pi, n_seg + 1)
    th_mid, w_mid = gl8_panels(seg[1:-1])
    tau0 = t_edge * (seg[1] - seg[0])
    tau1 = t_edge * (seg[-1] - seg[-2])
    ths = np.concatenate([seg[0] + tau0, th_mid, seg[-1] - tau1])
    w_th = np.concatenate([
        (seg[1] - seg[0]) ** (1.0 - s) * w_edge * (np.sin(tau0) / tau0) ** (-s),
        w_mid * np.abs(np.sin(th_mid)) ** (-s),
        (seg[-1] - seg[-2]) ** (1.0 - s) * w_edge * (np.sin(tau1) / tau1) ** (-s)])
    dirs = np.stack([np.cos(ths), np.sin(ths)], axis=1)
    st = np.abs(dirs[:, 1])

    base = np.geomspace(r_lo, r_far, mid_panels)
    extra = [e for e in (0.25 * x2, x2, 4.0 * x2) if r_lo < e < r_far]
    base = np.sort(np.concatenate([base, extra]))
    rho_t = r_far / t_tail
    wrho_t = w_tail * (r_far / t_tail ** 2) / t_tail ** (s - 1.0)

    rad = np.empty(len(ths))
    n_rad = n_jac + 8 * (len(base) - 1 + 2 * len(circles))
    for rows in node_chunks(np.full(len(ths), n_rad)):
        m = len(rows)
        rho_m, w_m = gl8_panels(_radial_edges(base, corner, dirs[rows], circles,
                                              r_lo, r_far))
        rho = np.concatenate([rho_m, np.broadcast_to(rho_t, (m, n_jac))], axis=1)
        wrho = np.concatenate([w_m, np.broadcast_to(wrho_t, (m, n_jac))], axis=1)
        z = _ray_points(corner, dirs[rows], rho)
        denom = rho ** 2 + 2.0 * rho * x2 * st[rows, None] + x2 ** 2
        f = g(z.reshape(-1, 2)).reshape(rho.shape) * rho ** (1.0 - s) / denom
        rad[rows] = np.sum(wrho * f, axis=1)
    return float(w_th @ rad)


# (Jacobi nodes, radial mid panels, angular segments) of the coarse and the
# fine level of ``halfplane_poisson``
_HALFPLANE_LEVELS = ((16, 24, 8), (24, 40, 14))
_HALFPLANE_NORM = {}    # the fine level's integral of g == 1, per order s


def halfplane_poisson(g, x, s):
    """Solution of the fractional Dirichlet problem on the upper half plane
    with datum g on the lower half plane, by direct quadrature of the
    explicit Poisson kernel

        u(x) = c_s x2^s int int g(z) / (|z2|^s |x - z|^2) dz.

    The constant c_s is fixed by u == 1 for g == 1 (computed once per s and
    cached).  g must be bounded.  Two fixed resolution levels provide the
    error estimate.  Returns (value, err_estimate).
    """
    if _declared_growth(g) > 0.0:
        raise DomainError("halfplane_poisson requires a bounded datum")
    x = np.asarray(x, dtype=float)
    x1, x2 = float(x[0]), float(x[1])
    if x2 <= 0.0:
        raise DomainError("evaluation point must have x2 > 0")
    coarse, fine = _HALFPLANE_LEVELS
    if s not in _HALFPLANE_NORM:
        ones = lambda z: np.ones(np.asarray(z).shape[0])
        # for g == 1 the raw integral is x2^{-s} * J with J independent of x
        _HALFPLANE_NORM[s] = _halfplane_raw(ones, 0.0, 1.0, s, *fine)
    norm = _HALFPLANE_NORM[s]
    vals = [x2 ** s * _halfplane_raw(g, x1, x2, s, *lv) / norm
            for lv in (coarse, fine)]
    return vals[1], abs(vals[1] - vals[0])


def kappa_constant(s):
    """The angular constant int_{5pi/4}^{7pi/4} |sin th|^{-s} dth appearing
    in the lower bound of the log-correction example; |sin| stays away from
    zero on this sector, so two Gauss panels suffice."""
    nodes, w = gl8_panels(np.array([1.25, 1.5, 1.75]) * np.pi)
    return float(w @ np.abs(np.sin(nodes)) ** (-s))
