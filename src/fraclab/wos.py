"""Walk-on-spheres solver for the fractional Laplacian and the Poisson-kernel
quadratures used as its deterministic counterparts.

The isotropic 2s-stable process exits a ball in one jump with a known law:
started at x in the unit ball, the exit point has density proportional to
((1 - |x|^2) / (|y|^2 - 1))^s |x - y|^{-N} on |y| > 1 (Blumenthal, Getoor
and Ray, Trans. AMS 99, 1961).  From the centre it is isotropic in angle,
and in every dimension W = |y|^{-2} follows Beta(s, 1 - s), so the exit
radius is drawn exactly as W^{-1/2}.  From any other point two closed forms
map that draw and a uniform angle to the exact exit point
(``_ball_exit``), so ``solve`` on a Ball takes one exact jump per walker;
on every other domain the walkers step from inscribed balls until they
leave.  Scale invariance of the process makes the unit-ball law exact for
every ball radius.  A point deep in the domain's core ball (``Domain.core``)
first jumps exactly out of the core, to Y, and walks on from there to its
exit point X; it is paid g(X) - g(Y) plus the core's exit integral of g,
a control variate whose mean is exact (Asmussen and Glynn, Stochastic
Simulation, 2007, ch. V).

``solve_points`` walks many points in one call: each point's walkers form
streams of at most ``_BATCH_SIZE`` walkers, each with its own
counter-based generator.  The streams are listed batch by batch (the
first stream of every point, then the second, ...) and consecutive ones
are packed into shared walk batches of at most ``_BATCH_SIZE`` walkers,
each of which runs one step loop.  A walker draws the same numbers in any
walk batch, so every point's sample is the one ``solve`` returns for it
alone, bit for bit (Kyprianou, Osojnik and Shardlow, IMA J. Numer. Anal.
38, 2018, walk each walker independently of the others once its draws are
fixed).
"""

from dataclasses import dataclass

import numpy as np

from ._quad import (bisect_edges, gauss_jacobi_01, gl8_panels, node_chunks,
                    periodic_edges)
from .errors import (DivergenceError, DomainError, ParameterError,
                     ReliabilityError)
from .geometry import Ball, row_dot


# ---------------------------------------------------------------------------
# exit law

def _refuse_order(s):
    """A ParameterError naming s unless 0 < s < 1."""
    if not 0.0 < s < 1.0:
        raise ParameterError(f"order s must lie in (0,1), got {s}")


def _is_int(v):
    """Whether v is an integer that is not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


class StableExitSampler:
    """The exact exit-radius law of order s: r = W^{-1/2}, W ~ Beta(s, 1-s)."""

    def __init__(self, s):
        _refuse_order(s)
        self.s = float(s)

    def radius(self, slot, rng):
        """Exit radii >= 1, one per entry of the index array ``slot``:
        max(slot) + 1 radii are drawn and entry i takes radius slot[i], so
        equal slots share one radius.  At small s numpy's Beta draw gives
        W = 0 now and then: a draw below the smallest double, 4.9e-324,
        rounds to 0, so P(W = 0) is about (4.9e-324)^s = 10^(-323 s), 5.8e-4
        at s = 0.01 and 3.4e-7 at s = 0.02.  That radius is inf, an exit at
        infinity, where a bounded datum pays its limit and a growing one
        fails the walk (with probability about N 10^(-323 s) over N
        paths)."""
        n = np.max(slot, initial=-1) + 1
        return (rng.beta(self.s, 1.0 - self.s, n) ** -0.5)[slot]


def _ball_exit(law, v, R, n, rng):
    """Exit points, less the centre, of n walkers started at offset v from
    the centre of a ball of radius R, in one exact jump each.  The draws
    are those of one step from the centre: one radius R0 = ``law.radius``
    and one angle phi per antithetic pair, walkers 2k and 2k + 1, the two
    walkers of a pair at z = +-e^{i phi}.  With r = |v| / R, the exit
    density integrated over angle makes (rho^2 - 1) / (1 - r^2) follow the
    law of R0^2 - 1, BetaPrime(1 - s, s), so the exit radius is rho R with
    rho = R0 sqrt(1 - r^2 (1 - R0^-2)).  Given rho, the exit direction
    follows the disk's harmonic measure from a = v / (R rho), which is the
    image e^{i theta} = (z + a) / (1 + conj(a) z) of the uniform z.  In
    dimension one a is a signed number, and the walker exits on the
    positive side where Re z > -sin(pi a / 2), with probability
    (1 + a) / 2.  At v = 0 both maps are the identity: rho = R0 and the
    direction is z, so a walk from the centre draws and rounds the numbers
    of a step loop's first step.  An infinite R0 (a Beta draw W = 0) gives
    rho = inf and a = 0."""
    walker = np.arange(n)
    slot = walker >> 1
    sign = 1 - 2 * (walker & 1)
    r0 = law.radius(slot, rng)
    phi = 2.0 * np.pi * rng.random(slot[-1] + 1)
    r2 = float(v @ v) / (R * R)
    rho = r0 * np.sqrt(1.0 - r2 * (1.0 - 1.0 / (r0 * r0)))
    # the step times a unit direction, as a step of the loop rounds it
    step = R * rho
    zx = sign * np.cos(phi)[slot]
    a = v[:, None] / step
    if len(v) == 1:
        return (step * np.sign(zx + np.sin(0.5 * np.pi * a[0])))[:, None]
    zy = sign * np.sin(phi)[slot]
    ax, ay = a
    # (z + a) / (1 + conj(a) z) as (z + a) conj(1 + conj(a) z) / |.|^2
    num_x, num_y = zx + ax, zy + ay
    den_x, den_y = 1.0 + ax * zx + ay * zy, ax * zy - ay * zx
    norm = den_x * den_x + den_y * den_y
    return np.stack([step * ((num_x * den_x + num_y * den_y) / norm),
                     step * ((num_y * den_x - num_x * den_y) / norm)], axis=1)


# ---------------------------------------------------------------------------
# solver

# walkers per batch; even, so that no antithetic pair spans two batches
_BATCH_SIZE = 1 << 15
# the most steps a walker of the step loop takes; one still inside after
# them is paid at its projection and counted in n_maxed
_MAX_STEPS = 1000
# the snap tolerance as a fraction of the domain's diameter: a walker of
# the step loop closer to the boundary than that is paid at its projection
_SNAP_REL = 1e-6
# the least depth in the domain's core ball, as a fraction of its radius,
# of a point walked with the core control variate.  ``ball_poisson``'s
# error estimate covers its error to depth 1e-5 of the unit ball (15 of 15
# points of the capped datum, and the star core's 4 test points); a lower
# depth would move the streams of the points it adds
_CORE_DEPTH = 1e-3


@dataclass(frozen=True)
class WoSConfig:
    """The settings of ``solve`` and ``solve_points``, read in one place,
    each refused by name when it is built out of range: paths an int >= 1
    and seed an int in [0, 2^64) (the first word of every Philox key).
    Every walk pairs its walkers antithetically, so an odd path count
    rounds up to a whole pair (see ``solve_points``)."""
    paths: int = 100000
    seed: int = 0

    def __post_init__(self):
        if not _is_int(self.paths) or self.paths < 1:
            raise ParameterError(
                f"paths must be an int >= 1, got {self.paths!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 1 << 64:
            raise ParameterError(
                f"seed must be an int in [0, 2^64), got {self.seed!r}")


@dataclass(frozen=True)
class SolutionSample:
    """One point's walk.  ``mean_steps`` and ``steps_max`` count a core
    jump as a step.  ``bias_bound`` is the snap and step-cap bias bound of
    the walk (see ``solve_points``) plus ``control_err``, the error
    estimate of the core quadrature ``ball_poisson`` when the point was
    walked with the core control variate (None when it was not).  That
    estimate is the difference of two quadrature levels; against a scipy
    oracle it covers the quadrature's error at every point measured, from
    the centre to depth 1e-5 of the ball."""
    x: tuple
    estimate: float
    stderr: float
    paths_used: int
    mean_steps: float
    snapped_fraction: float
    bias_bound: float
    seed: int
    n_maxed: int = 0      # walkers stopped by the step cap, paid at projection
    steps_max: int = 0    # the most steps any walker took
    control_err: float | None = None  # core quadrature error, control walks


def _declared_growth(g):
    """The payload growth the datum g declares; a ParameterError naming g
    if it declares none, as a bare callable does."""
    if not hasattr(g, "payload_growth"):
        raise ParameterError(
            f"datum g = {g!r} declares no growth: pass an ExteriorData, "
            "which declares its growth and its Hoelder certificate")
    return g.payload_growth


def _refuse_datum(g, s, dim):
    """The checks of a datum g before a walk or a ball quadrature of order s
    in dimension dim: a ParameterError naming g if it declares no growth
    (``_declared_growth``) or declares a point (a singular point, its power
    anchor or radial centre, a kink circle's centre) of another dimension,
    which its function would broadcast against the rows it is handed or
    fail on; and a DivergenceError once its growth reaches 2s, since the
    exit radius has tail r^(-2s)."""
    growth = _declared_growth(g)
    points = [("singular_points", p)
              for p in getattr(g, "singular_points", ())]
    points += [("kink_circles", c) for c, _ in getattr(g, "kink_circles", ())]
    points += [(name, getattr(g, name, None))
               for name in ("power_anchor", "radial_center")]
    for name, p in points:
        if p is not None and np.shape(p) != (dim,):
            label = getattr(g, "description", "") or repr(g)
            raise ParameterError(
                f"datum {label} declares {name} point {list(p)}, which is "
                f"not a point of dimension {dim}")
    if growth >= 2.0 * s:
        raise DivergenceError(
            f"datum growth {growth} is not below 2s = {2.0 * s}: the "
            "exit radius has tail r^(-2s), so the payload's mean diverges")


def solve(dom, g, x, kernel, cfg=None, point_index=0):
    """Estimate the solution of the fractional Dirichlet problem at x by
    alpha-stable walk-on-spheres (one exact jump per walker on a Ball):
    ``solve_points`` at the one point x, on the streams of point_index."""
    return solve_points(dom, g, [x], kernel, cfg, [point_index])[0]


class _Tally:
    """The running sums of one point's walk, stream by stream."""

    def __init__(self):
        self.sum_pay = 0.0
        # the variance sums run over pair means less the first one, so they
        # do not cancel under a large mean
        self.ref = None
        self.sum_dev = 0.0
        self.sum_sq = 0.0
        self.n_pairs = 0
        self.n_walked = 0
        self.total_steps = 0
        self.n_snapped = 0
        self.n_maxed = 0
        self.steps_max = 0
        # sum of dist^alpha over the walkers stopped by the step cap
        self.maxed_mass = 0.0

    def add(self, payload, steps, most, paid, maxed_dist, alpha):
        """Take one stream: its walkers' payloads, pair after pair, its
        steps, its most steps of a walker, its count paid at a projection
        and the distances to it of its walkers stopped by the step cap."""
        self.n_walked += len(payload)
        self.total_steps += steps
        self.steps_max = max(self.steps_max, most)
        self.n_snapped += paid
        self.n_maxed += len(maxed_dist)
        self.maxed_mass += float(np.sum(maxed_dist ** alpha))
        pairs = 0.5 * (payload[0::2] + payload[1::2])
        if self.ref is None:
            self.ref = float(pairs[0])
        dev = pairs - self.ref
        self.sum_pay += float(np.sum(payload))
        self.sum_dev += float(np.sum(dev))
        self.sum_sq += float(np.sum(dev * dev))
        self.n_pairs += len(pairs)

    def sample(self, x, g, snap_eps, exact, seed, control_err):
        """The SolutionSample of the point x; control_err is its core
        quadrature's error estimate, or None."""
        n_walked, n_pairs = self.n_walked, self.n_pairs
        # pair means average to the same value
        mean = self.sum_pay / n_walked
        if n_pairs > 1:
            var = max(self.sum_sq / n_pairs - (self.sum_dev / n_pairs) ** 2,
                      0.0)
            var *= n_pairs / (n_pairs - 1)
            stderr = float(np.sqrt(var / n_pairs))
        else:
            stderr = float("nan")   # one pair has no sample variance
        bias = 0.0 if exact else \
            g.C0 * (snap_eps ** g.alpha + self.maxed_mass / n_walked)
        if control_err is not None:
            bias += control_err
        return SolutionSample(
            x=tuple(x.tolist()), estimate=float(mean), stderr=stderr,
            paths_used=n_walked, mean_steps=self.total_steps / n_walked,
            snapped_fraction=self.n_snapped / n_walked,
            bias_bound=float(bias), seed=seed, n_maxed=self.n_maxed,
            steps_max=self.steps_max, control_err=control_err)


def _packs(streams, cap):
    """Consecutive streams packed into walk batches of at most cap walkers
    (the third entry of a stream is its walker count)."""
    pack, walkers = [], 0
    for stream in streams:
        if pack and walkers + stream[2] > cap:
            yield pack
            pack, walkers = [], 0
        pack.append(stream)
        walkers += stream[2]
    if pack:
        yield pack


def solve_points(dom, g, xs, kernel, cfg=None, point_indices=None):
    """``solve`` at every point of xs, point k on the streams of
    point_indices[k] (default k), walked together with the exact exit law
    of order s = kernel.s: walkers started at each interior point of xs,
    paid by g where they stop.  Returns one SolutionSample per point, each
    the one ``solve`` returns at that point and index.

    The paths and seed come from the ``WoSConfig`` cfg (default
    ``WoSConfig()``).  Every walk pairs its walkers antithetically
    (Hammersley and Morton, Proc. Camb. Phil. Soc. 52, 1956): walkers 2k
    and 2k + 1 share their draws and step at opposite angles, and an odd
    path count rounds up to a whole pair.  A domain that is not bounded, a
    kernel that is not the fractional Laplacian of the domain's dimension,
    or a dimension above 2 is refused first, and so is a point index that
    is not an int in [0, 2^32), since its streams' Philox key word is
    (index << 32) + b.  A
    datum that declares no growth (a bare callable: no Hoelder certificate
    for the bias bound) raises a ParameterError, and one whose growth
    reaches 2s a DivergenceError: the exit radius has tail
    P(R > r) ~ r^(-2s), so its payload has no mean.  A point that is not
    interior raises a DomainError naming its index and coordinates; every
    check comes before any walker moves.

    A point's walkers form streams: stream b of point k holds walkers
    b * _BATCH_SIZE onwards, at most ``_BATCH_SIZE`` of them, and draws
    from the counter-based generator keyed by (seed, point_indices[k], b),
    so results do not depend on scheduling.  The streams are listed batch
    by batch, stream b of every point before stream b + 1 of any, so the
    short last streams of all the points sit together; consecutive streams
    are packed into walk batches of at most ``_BATCH_SIZE`` walkers, and
    each walk batch walks together.  A walker draws the same numbers in any
    walk batch, and each point's sums run over its streams in order, so
    every point's sample is the one it gets walked alone.

    On a Ball every walker exits in one exact jump (``_ball_exit``), from
    the draws of one step: one exit radius and one angle per pair, the two
    walkers of a pair at opposite points of the unit circle.  No
    ``dist_bound``, snap or projection enters, so the bias bound is 0, and
    a walker takes one step.
    Every other domain walks the step loop of ``_step_batch``, with the
    snap tolerance snap_eps = ``_SNAP_REL`` * diameter and the step cap
    ``_MAX_STEPS``; its bias bound is the snap bias, which the Hoelder
    certificate of g bounds by C0 * snap_eps^alpha, plus C0 * dist^alpha
    for each walker stopped by the step cap and paid at its projection,
    over the paths walked.
    A point x at least ``_CORE_DEPTH`` core radii inside the domain's core
    ball B = ``dom.core`` (a Ball's own walk keeps its one jump) takes the
    core control variate.  Before any walker moves it gets (I, err) =
    ``ball_poisson(B, g, x, s)``, the exit integral of g from B.  Each of
    its streams first jumps out of B with ``_ball_exit`` (offset x - c,
    from the stream's own generator), and the step loop walks on from the
    landing points Y; a walker whose Y lies outside the domain stops there,
    so X = Y.  A walker is paid g(X) - g(Y) + I, which has the mean of
    g(X), since E g(Y) = I, and much less variance.  The core jump counts
    as a step, and err adds to the point's bias bound and is its
    ``control_err``.
    One ``g`` call per walk batch pays every walker (at X, and at Y for the
    control walkers); it acts row by row, so a walker's payload does not
    depend on the rest of the batch.  A
    non-finite payload (an exit radius that overflowed at small s, met by a
    datum that grows) raises a ReliabilityError naming s and the count, and
    so do walkers stopped by the step cap on more than 1% of a point's
    paths.
    The stderr is NaN when a point has one pair (one or two paths).
    """
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
    law = StableExitSampler(kernel.s)
    cfg = cfg or WoSConfig()
    _refuse_datum(g, law.s, dom.dim)
    xs = [np.asarray(x, dtype=float) for x in xs]
    point_indices = (range(len(xs)) if point_indices is None
                     else list(point_indices))
    if len(point_indices) != len(xs):
        raise ParameterError(
            f"{len(xs)} points need as many point indices, got "
            f"{len(point_indices)}")
    for i in point_indices:
        if not _is_int(i) or not 0 <= i < 1 << 32:
            raise ParameterError(
                f"a point index must be an int in [0, 2^32), got {i!r}")
    for i, x in zip(point_indices, xs):
        if not dom.contains(x):
            raise DomainError(
                f"walk-on-spheres needs an interior starting point: point "
                f"{i} at {x.tolist()} is not interior")
    exact = isinstance(dom, Ball)
    # (value, error estimate) of the core quadrature at each point deep in
    # the core ball, None at the others (a Ball has no core)
    core = dom.core
    controls = [ball_poisson(core, g, x, law.s)
                if core is not None and core.radius - np.linalg.norm(
                    x - core.center) >= _CORE_DEPTH * core.radius
                else None for x in xs]
    batch_size, seed = _BATCH_SIZE, cfg.seed
    snap_eps = _SNAP_REL * dom.diameter
    paths = cfg.paths + cfg.paths % 2
    n_batches = (paths + batch_size - 1) // batch_size

    # the streams (point k, batch b, walkers), batch by batch
    streams = [(k, b, min(batch_size, paths - b * batch_size))
               for b in range(n_batches) for k in range(len(xs))]
    tallies = [_Tally() for _ in xs]
    for pack in _packs(streams, batch_size):
        rngs = [np.random.Generator(np.random.Philox(
            key=[seed, (int(point_indices[k]) << 32) + b]))
            for k, b, _ in pack]
        if exact:
            # an exit radius is inf where numpy's Beta draw gives W = 0 (at
            # small s): such a walker exits at infinity, and its payload is
            # checked below
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                stop = np.concatenate([
                    dom.center + _ball_exit(law, xs[k] - dom.center,
                                            dom.radius, size, rng)
                    for (k, _, size), rng in zip(pack, rngs)])
            walks = [(size, 1, 0, np.empty(0)) for _, _, size in pack]
            landed = []
        else:
            # a control stream first jumps out of the core, drawing from its
            # own generator, and its walkers walk on from where they landed
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                starts = [xs[k] if controls[k] is None else
                          core.center + _ball_exit(law, xs[k] - core.center,
                                                   core.radius, size, rng)
                          for (k, _, size), rng in zip(pack, rngs)]
            landed = [x for x in starts if x.ndim == 2]
            stop, walks = _step_batch(
                dom, starts, [size for _, _, size in pack], law, snap_eps,
                rngs)
        # one datum call pays where every walker stopped and where each
        # control walker landed from its core jump
        payload = np.asarray(
            g(np.concatenate([stop, *landed]) if landed else stop),
            dtype=float)
        lo, lo_y = 0, len(stop)
        for (k, b, size), walk in zip(pack, walks):
            part = payload[lo:lo + size]
            lo += size
            if controls[k] is not None:
                # g(X) - g(Y) + I, and the core jump is a step; a growing
                # datum pays inf - inf at a walker that jumped to infinity,
                # which the check below refuses
                with np.errstate(invalid="ignore"):
                    part = part - payload[lo_y:lo_y + size] + controls[k][0]
                lo_y += size
                walk = (walk[0] + size, walk[1] + 1, *walk[2:])
            n_bad = np.count_nonzero(~np.isfinite(part))
            if n_bad:
                raise ReliabilityError(
                    f"{n_bad} of {size} walkers of batch {b} have a "
                    f"non-finite payload at order s = {law.s}: an exit "
                    f"radius overflowed, or the datum is not finite where "
                    f"they stopped")
            tallies[k].add(part, *walk, g.alpha)

    for t in tallies:
        if t.n_maxed > 0.01 * t.n_walked:
            raise ReliabilityError(
                f"{t.n_maxed} of {t.n_walked} paths hit max_steps = "
                f"{_MAX_STEPS}")
    return [t.sample(x, g, snap_eps, exact, seed,
                     None if c is None else c[1])
            for x, t, c in zip(xs, tallies, controls)]


def _step_batch(dom, starts, sizes, law, snap_eps, rngs):
    """One walk batch of the step loop on a planar domain: stream j holds
    sizes[j] walkers and draws from the generator rngs[j]; they start at
    the interior point starts[j], or, when starts[j] is an array of
    sizes[j] rows, walker i at its row i (the landing points of a core
    jump, any of which may lie outside).  Returns where each walker of the
    batch stopped (its projection where it snapped or ran out of steps),
    stream after stream, and for each stream its steps walked, its most
    steps of a walker, its count paid at a projection and the distances to
    it of its walkers stopped by the step cap ``_MAX_STEPS``.

    A stream's walkers that all start at its point take one
    ``dom.dist_bound`` row, those with their own starts one row each, in
    one call; a walker that starts outside stops there, and one within
    snap_eps snaps.  Each step makes one
    ``dom.dist_bound(newpos, snap_eps)`` call for the whole batch: a walker
    jumps from the ball whose radius is that lower bound on the distance,
    to ``law.radius`` times that radius, exits where the bound is 0 (or
    NaN), and snaps to its projection where the distance is below
    snap_eps.  ``dist_bound`` decides the snap exactly: below snap_eps it
    is the exact distance unless the domain's upper bound on the distance
    is below snap_eps too, and then the walker snaps on either value, so
    the snap decisions are those of the exact distance.  The ball lies
    inside the domain, where the exit law is exact, so the whole ball is as
    unbiased as a smaller one and takes the fewest steps.  Only the live
    walkers are carried from step to step: one compaction after each
    ``dist_bound`` call stops the exits and the snaps together, and after
    the last allowed step (the ``_MAX_STEPS``-th) only the exits, so a
    walker that lands within snap_eps there has run out of steps.  At each
    step every stream with live walkers draws, from its own generator, one exit
    radius and one angle phi per live pair of its own (walkers 2k and
    2k + 1), in the order of its walkers, so a walker's numbers do not
    depend on the other streams; the two walkers of a pair share the radius
    and step at opposite angles.
    At the end of the batch one ``dom.project`` call takes every walker
    paid at its projection (snapped or stopped by the step cap); it acts
    row by row."""
    max_steps = _MAX_STEPS
    # stream j holds walkers offsets[j] to offsets[j + 1] - 1 of the batch;
    # every stream but the last of a point has _BATCH_SIZE walkers and the
    # path count is even, so no pair spans two
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    # a stream starts at its point, one row for all its walkers, or at its
    # walkers' own points, one row each
    rows = np.concatenate([np.atleast_2d(x) for x in starts])
    reps = np.concatenate([[n] if np.ndim(x) == 1 else np.ones(n, dtype=int)
                           for x, n in zip(starts, sizes)])
    # where each walker stopped, and whether it is paid at its projection
    # (snapped or stopped by the step cap) rather than there
    stop = np.empty((offsets[-1], dom.dim))
    projected = np.zeros(offsets[-1], dtype=bool)
    # the live walkers, their positions and their dist_bound, compacted as
    # walkers snap, exit or run out of steps
    live = np.arange(offsets[-1])
    pos = np.repeat(rows, reps, axis=0)
    steps = [0] * len(sizes)
    steps_max = [0] * len(sizes)
    # an exit radius is inf where numpy's Beta draw gives W = 0 (at small
    # s), and the step and dist_bound then meet inf and NaN: such a walker
    # exits, and its payload is checked by the caller
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = np.repeat(dom.dist_bound(rows, snap_eps), reps)
        for step in range(max_steps + 1):
            # one compaction: a walker stays live at d >= snap_eps, snaps to
            # its projection at 0 < d < snap_eps and exits at d <= 0 or
            # NaN; after the last allowed step only exits leave, and the
            # rest ran out of steps
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
            # rank of each walker's pair among the live pairs of the batch;
            # a stream's live walkers are live[a:b], a = cut[j], b =
            # cut[j + 1], and its own ranks are slot[a:b] less slot[a]; the
            # second walker of a pair steps the opposite way (a negative
            # radius)
            pair = live >> 1
            first = np.empty(len(live), dtype=bool)
            first[0] = True
            np.not_equal(pair[1:], pair[:-1], out=first[1:])
            slot = np.cumsum(first) - 1
            cut = np.searchsorted(live, offsets).tolist()
            radii, phis = [], []
            for j, (a, b) in enumerate(zip(cut, cut[1:])):
                if a == b:
                    continue
                u = slot[a]
                radii.append(law.radius(slot[a:b] - u if u else slot[a:b],
                                        rngs[j]))
                phis.append(rngs[j].random(slot[b - 1] + 1 - u))
                steps[j] += b - a
                steps_max[j] = step + 1
            radius = radii[0] if len(radii) == 1 else np.concatenate(radii)
            phi = phis[0] if len(phis) == 1 else np.concatenate(phis)
            radius = d * radius * (1 - 2 * (live & 1))
            phi = 2.0 * np.pi * phi
            pos[:, 0] += radius * np.cos(phi)[slot]
            pos[:, 1] += radius * np.sin(phi)[slot]
            d = np.asarray(dom.dist_bound(pos, snap_eps))
    # the walkers still live ran out of steps
    stop[live] = pos
    projected[live] = True
    paid = np.flatnonzero(projected)
    maxed_dist = np.empty(0)
    if len(paid):
        z0 = dom.project(stop.compress(projected, axis=0))[0]
        if len(live):
            maxed_dist = np.linalg.norm(
                pos - z0[np.searchsorted(paid, live)], axis=1)
        stop[paid] = z0
    n_paid = np.searchsorted(paid, offsets)
    n_maxed = np.searchsorted(live, offsets)
    return stop, [(steps[j], steps_max[j], int(n_paid[j + 1] - n_paid[j]),
                   maxed_dist[n_maxed[j]:n_maxed[j + 1]])
                  for j in range(len(sizes))]


# ---------------------------------------------------------------------------
# deterministic Poisson-kernel quadratures

def _ray_circle_roots(origin, dirs, center, radius, lo, hi):
    """Radii r in (lo, hi) with |origin + r theta - center| = radius, for
    each unit direction theta (a row of ``dirs``): two columns per direction,
    ``hi`` where there is no such root, so the roots can pad panel edges.
    A row's roots do not depend on the other rows (``row_dot``)."""
    v = np.asarray(origin, dtype=float) - np.asarray(center, dtype=float)
    b = row_dot(dirs, v)
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


def _ball_ray_kinks(dom, g, dirs, lo, hi):
    """Where each ray c + rho theta from the ball's centre c (theta a row
    of ``dirs``) meets the datum's kinks in (lo, hi), as columns padded
    with ``hi``: its crossings of each kink circle, one column for a circle
    that encloses c (its other root is negative) and two for any other, and
    its closest approach (p - c) . theta to the datum's radial centre p when
    p lies outside the ball, a cone point of a datum of |y - p|."""
    c = dom.center
    cols = [np.empty((len(dirs), 0))]
    for cc, rr in getattr(g, "kink_circles", ()):
        cc = np.asarray(cc, dtype=float)
        roots = _ray_circle_roots(c, dirs, cc, float(rr), lo, hi)
        cols.append(roots[:, 1:] if np.linalg.norm(cc - c) < rr else roots)
    p = getattr(g, "radial_center", None)
    offset = None if p is None else np.asarray(p, dtype=float) - c
    if offset is not None and np.linalg.norm(offset) > dom.radius:
        near = row_dot(dirs, offset)
        cols.append(np.where((near > lo) & (near < hi), near, hi)[:, None])
    return np.concatenate(cols, axis=1)


def _ball_angular_edges(dom, g, x):
    """The angular panel edges of ``ball_poisson`` about the ball's centre:
    graded towards the angle of x down to a quarter of its depth, and
    towards the angle of each singular point of g."""
    c = dom.center
    v = x - c
    rx = float(np.linalg.norm(v))
    centers = [float(np.arctan2(v[1], v[0])) if rx > 0 else 0.0]
    scales = [0.25 * max(dom.radius - rx, 1e-12) / dom.radius]
    for p in getattr(g, "singular_points", ()):
        p = np.asarray(p, dtype=float)
        centers.append(float(np.arctan2(p[1] - c[1], p[0] - c[0])))
        scales.append(1e-9)
    return periodic_edges([centers], [scales], 2.0 * np.pi)[0]


def _ball_poisson_level(dom, g, x, s, edges, n_jac, ratio):
    """One level of the ball Poisson quadrature: GL8 panels on the angular
    ``edges``, and along each ray an ``n_jac``-point Jacobi edge layer, GL8
    panels geometric in rho - R at a ratio of at most ``ratio`` out to
    r_far, split at the ray's kinks (``_ball_ray_kinks``), and an
    ``n_jac``-point Jacobi tail beyond r_far.  All rays of the level are
    evaluated together, in chunks of at most NODE_CAP radial nodes."""
    R = dom.radius
    c = dom.center
    v = x - c
    rx = float(np.linalg.norm(v))
    d = R - rx
    h = d * (R + rx)    # R^2 - |x|^2 without cancellation
    circles = [(np.asarray(cc, dtype=float), float(rr))
               for cc, rr in getattr(g, "kink_circles", ())]
    growth = g.payload_growth
    phis, w_phi = gl8_panels(edges)
    dirs = np.stack([np.cos(phis), np.sin(phis)], axis=1)

    r_far = max(16.0 * R, 8.0 * (rx + R))
    for cc, rr in circles:
        r_far = max(r_far, 4.0 * (np.linalg.norm(cc - c) + rr))
    # the Jacobi edge layer: a quarter of the depth of x, where the kernel
    # peaks, and clear of the kink circles that keep off the ball
    width = 0.25 * d
    for cc, rr in circles:
        closest = abs(float(np.linalg.norm(cc - c)) - rr)
        if closest > R:
            width = min(width, 0.9 * (closest - R))
    # the kernel less |x - y|^-2 and its constant, with the weights, at the
    # ray-independent nodes: the edge layer, where the Jacobi rule takes
    # (rho - R)^{-s}, and the tail, in t = r_far / rho with weight
    # t^{2s-1-growth}
    t_j, w_j = gauss_jacobi_01(n_jac, -s)
    rho_j = R + t_j * width
    k_j = width ** (1.0 - s) * w_j * (h / (rho_j + R)) ** s * rho_j
    beta = 2.0 * s - 1.0 - growth
    t_t, w_t = gauss_jacobi_01(n_jac, beta)
    rho_t = r_far / t_t
    k_t = (w_t * (r_far / t_t ** 2) / t_t ** beta
           * (h / (rho_t ** 2 - R ** 2)) ** s * rho_t)
    rho_e = np.concatenate([rho_j, rho_t])
    k_e = np.concatenate([k_j, k_t])
    # GL8 panels on edges geometric in rho - R, split at each ray's kinks
    n_geo = max(1, int(np.ceil(np.log((r_far - R) / width) / np.log(ratio))))
    base = R + np.geomspace(width, r_far - R, n_geo + 1)
    kinks = _ball_ray_kinks(dom, g, dirs, base[0], r_far)

    num = np.empty(len(phis))
    den = np.empty(len(phis))
    n_rad = 2 * n_jac + 8 * (n_geo + kinks.shape[1])
    for rows in node_chunks(np.full(len(phis), n_rad)):
        m = len(rows)
        rho_m, w_m = gl8_panels(np.sort(np.concatenate(
            [np.broadcast_to(base, (m, len(base))), kinks[rows]], axis=1),
            axis=1))
        k_m = w_m * (h / (rho_m ** 2 - R ** 2)) ** s * rho_m
        rho = np.concatenate([np.broadcast_to(rho_e, (m, 2 * n_jac)), rho_m],
                             axis=1)
        kern = np.concatenate([np.broadcast_to(k_e, (m, 2 * n_jac)), k_m],
                              axis=1)
        y = _ray_points(c, dirs[rows], rho)
        dist2 = (y[..., 0] - x[0]) ** 2 + (y[..., 1] - x[1]) ** 2
        kv = kern / dist2
        num[rows] = np.sum(kv * g(y.reshape(-1, 2)).reshape(rho.shape), axis=1)
        den[rows] = np.sum(kv, axis=1)
    return float(w_phi @ num) / float(w_phi @ den)


# (Jacobi nodes, largest panel ratio in rho - R, whether the angular panels
# are bisected) of the coarse and the fine level of ``ball_poisson``
_BALL_LEVELS = ((16, 4.0, False), (24, 2.0, True))


def ball_poisson(dom, g, x, s):
    """Direct Poisson-kernel quadrature of the fractional Dirichlet solution
    on a planar ball: the exit kernel ((R^2 - |x|^2) / (|y|^2 - R^2))^s
    |x - y|^-2 (Blumenthal, Getoor and Ray, Trans. AMS 99, 1961) times g,
    in polar coordinates about the centre.

    The angular panels are graded towards the angle of x down to a quarter
    of its depth d = R - |x|, where the kernel peaks, and towards each
    singular point of g.  Along each ray a Jacobi rule takes the
    (rho - R)^-s edge layer, min(d / 4, the kink circles' clearance of the
    ball) wide; GL8 panels geometric in rho - R follow out to r_far, split
    at the ray's kink-circle crossings and at its closest approach to the
    datum's radial centre outside the ball; a Jacobi rule in r_far / rho
    takes the tail.  The constant of the exit kernel is eliminated by
    normalizing with the quadrature of the kernel itself (exact value 1 for
    g == 1), so the maximum principle holds by construction.

    The two levels of ``_BALL_LEVELS`` provide the error estimate, the
    fine level's bisected angular panels and finer radial ratio against the
    coarse one: against a scipy oracle it covers the error at every point
    measured, from the centre to depth 1e-5.  Returns (value,
    err_estimate).  s outside (0, 1) and an x that is not a finite 2-vector
    raise a ParameterError, and a datum is checked as in ``solve``, all
    before either level.
    """
    _refuse_order(s)
    if not isinstance(dom, Ball) or dom.dim != 2:
        raise DomainError("ball_poisson requires a planar ball")
    x = np.asarray(x, dtype=float)
    if x.shape != (2,) or not np.all(np.isfinite(x)):
        raise ParameterError(
            f"ball_poisson needs x as a finite 2-vector, not {x.tolist()}")
    if not dom.contains(x):
        raise DomainError("evaluation point must be interior")
    _refuse_datum(g, s, dom.dim)
    edges = _ball_angular_edges(dom, g, x)
    coarse, fine = (
        _ball_poisson_level(dom, g, x, s,
                            bisect_edges(edges) if split else edges,
                            n_jac, ratio)
        for n_jac, ratio, split in _BALL_LEVELS)
    return fine, abs(fine - coarse)


# ---------------------------------------------------------------------------
# half-plane Poisson integral (the sharp log-correction example)

def _halfplane_radial_rule(corner, x2, s, n_jac, mid_panels, circles):
    """The radial rule of both half-plane paths along rays from ``corner``:
    GL8 panels on geomspace edges over (r_lo, r_far) with extra edges at
    0.25 x2, x2 and 4 x2, split at each ray's crossings of the kink circles,
    and a Jacobi rule in t = r_far / rho for the rho^{-1-s} tail.

    Returns the node count per ray and ``nodes(dirs)``, the radial nodes and
    weights of the rays along the rows of ``dirs``, one row each."""
    r_far = 64.0 * max(1.0, abs(corner[0]), x2)
    for cc, rr in circles:
        r_far = max(r_far, 4.0 * (float(np.linalg.norm(cc - corner)) + rr))
    # integrand ~ rho^{1-s} g / x2^2 near 0: mass below r_lo is negligible
    r_lo = 1e-9 * x2
    # np.geomspace(r_lo, r_far, mid_panels) bit for bit, without its dtype
    # and sign handling, which took about a tenth of a radial-path level
    base = 10.0 ** np.linspace(np.log10(r_lo), np.log10(r_far), mid_panels)
    base[0], base[-1] = r_lo, r_far
    extra = [e for e in (0.25 * x2, x2, 4.0 * x2) if r_lo < e < r_far]
    # a kink circle centred at the corner meets every ray at its radius, so
    # its two ``_ray_circle_roots`` columns (the radius or r_far, and r_far)
    # join the shared edges; the other circles split each ray
    per_ray, crossing = [], []
    for cc, rr in circles:
        if cc[0] == corner[0] and cc[1] == corner[1]:
            crossing += [rr if r_lo < rr < r_far else r_far, r_far]
        else:
            per_ray.append((cc, rr))
    base = np.sort(np.concatenate([base, extra, crossing]))
    t_tail, w_tail = gauss_jacobi_01(n_jac, s - 1.0)
    rho_t = r_far / t_tail
    wrho_t = w_tail * (r_far / t_tail ** 2) / t_tail ** (s - 1.0)

    n_rad = n_jac + 8 * (len(base) - 1 + 2 * len(per_ray))

    def nodes(dirs):
        rho_m, w_m = gl8_panels(_radial_edges(base, corner, dirs, per_ray,
                                              r_lo, r_far))
        rho = np.empty((len(dirs), n_rad))
        wrho = np.empty((len(dirs), n_rad))
        rho[:, :-n_jac], rho[:, -n_jac:] = rho_m, rho_t
        wrho[:, :-n_jac], wrho[:, -n_jac:] = w_m, wrho_t
        return rho, wrho

    return n_rad, nodes


def _halfplane_raw(g, x1, x2, s, n_jac, mid_panels, n_seg):
    """Raw double integral of g(z) / (|z2|^s |x - z|^2) over the lower half
    plane, in polar coordinates around the corner (x1, 0).

    Writing z = corner + rho (cos th, sin th) with th in (pi, 2pi):

        raw = int |sin th|^{-s} Rad(th) dth,
        Rad(th) = int_0^inf g(z) rho^{1-s} / (rho^2 + 2 rho x2 |sin th| + x2^2) drho.

    Rad uses ``_halfplane_radial_rule``; the angular |sin|^{-s} endpoint
    singularities are handled by Jacobi rules.  All angles are evaluated
    together, in chunks of at most NODE_CAP nodes.
    """
    circles = [(np.asarray(cc, dtype=float), float(rr))
               for cc, rr in getattr(g, "kink_circles", ())]
    corner = np.array([x1, 0.0])
    t_edge, w_edge = gauss_jacobi_01(n_jac, -s)

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

    n_rad, radial_nodes = _halfplane_radial_rule(corner, x2, s, n_jac,
                                                 mid_panels, circles)
    rad = np.empty(len(ths))
    for rows in node_chunks(np.full(len(ths), n_rad)):
        rho, wrho = radial_nodes(dirs[rows])
        z = _ray_points(corner, dirs[rows], rho)
        denom = rho ** 2 + 2.0 * rho * x2 * st[rows, None] + x2 ** 2
        f = g(z.reshape(-1, 2)).reshape(rho.shape) * rho ** (1.0 - s) / denom
        rad[rows] = np.sum(wrho * f, axis=1)
    return float(w_th @ rad)


def _halfplane_angular(r, s, n_jac):
    """A(r) = 2 int_0^{pi/2} sin^{-s} phi / (1 + r^2 + 2 r sin phi) dphi for
    each entry of r: the angular integral of the half-plane kernel over the
    rays from the foot point, at radius r x2.  The Jacobi rule of weight
    phi^{-s} takes sin^{-s} phi = phi^{-s} (sin phi / phi)^{-s}; the rest
    is analytic, with its nearest pole at phi = -pi/2 (r = 1)."""
    t, w = gauss_jacobi_01(n_jac, -s)
    phi = 0.5 * np.pi * t
    sin = np.sin(phi)
    w = 2.0 * (0.5 * np.pi) ** (1.0 - s) * w * (sin / phi) ** (-s)
    r = np.asarray(r, dtype=float)[..., None]
    return (1.0 / (1.0 + r * r + 2.0 * r * sin)) @ w


def _halfplane_radial_raw(g, p, x2, s, n_jac, mid_panels):
    """``_halfplane_raw`` for a datum radial about p = (x1, 0), the foot of
    x, whose kink circles are all centred at p: g(z) = G(|z - p|), so the
    angular integral leaves the datum and

        raw = x2^{-2} int_0^inf G(rho) rho^{1-s} A(rho / x2) drho

    with A from ``_halfplane_angular``, on the radial rule of the 2-D path
    (every ray crosses a kink circle centred at p at its radius)."""
    circles = [(np.asarray(cc, dtype=float), float(rr))
               for cc, rr in g.kink_circles]
    down = np.array([[0.0, -1.0]])
    _, radial_nodes = _halfplane_radial_rule(p, x2, s, n_jac, mid_panels,
                                             circles)
    rho, wrho = radial_nodes(down)
    f = wrho[0] * g(_ray_points(p, down, rho)[0]) * rho[0] ** (1.0 - s)
    return float(f @ _halfplane_angular(rho[0] / x2, s, n_jac)) / x2 ** 2


def _radial_about_foot(g, x1):
    """Whether ``halfplane_poisson`` may take the radial path at a point over
    (x1, 0): g declares a radial centre p with p2 == 0 and p1 == x1, and
    every declared kink circle is centred at p."""
    p = getattr(g, "radial_center", None)
    if p is None or len(p) != 2 or p[1] != 0.0 or p[0] != x1:
        return False
    return all(len(cc) == 2 and cc[0] == p[0] and cc[1] == p[1]
               for cc, _ in getattr(g, "kink_circles", ()))


# (Jacobi nodes, radial mid panels, angular segments) of the coarse and the
# fine level of ``halfplane_poisson``
_HALFPLANE_LEVELS = ((16, 24, 8), (24, 40, 14))


def halfplane_poisson(g, x, s):
    """Solution of the fractional Dirichlet problem on the upper half plane
    with datum g on the lower half plane, by direct quadrature of the
    explicit Poisson kernel

        u(x) = c_s x2^s int int g(z) / (|z2|^s |x - z|^2) dz,

    c_s = sin(pi s) / pi^2 (Blumenthal, Getoor and Ray, Trans. AMS 99,
    1961), so that u == 1 for g == 1.  g must be bounded.  A datum that
    declares a ``radial_center`` p with p2 == 0 and p1 == x1, and only kink
    circles centred at p, takes a one-dimensional radial integral
    (``_halfplane_radial_raw``); every other datum or point takes the 2-D
    polar rule (``_halfplane_raw``).  Two fixed resolution levels provide
    the error estimate.  Returns (value, err_estimate).  s outside (0, 1)
    and an x that is not a finite 2-vector raise a ParameterError.
    """
    _refuse_order(s)
    if _declared_growth(g) > 0.0:
        raise DomainError("halfplane_poisson requires a bounded datum")
    x = np.asarray(x, dtype=float)
    if x.shape != (2,) or not np.all(np.isfinite(x)):
        raise ParameterError(
            f"halfplane_poisson needs x as a finite 2-vector, not {x.tolist()}")
    x1, x2 = float(x[0]), float(x[1])
    if x2 <= 0.0:
        raise DomainError("evaluation point must have x2 > 0")
    if _radial_about_foot(g, x1):
        p = np.array([x1, 0.0])
        vals = [_halfplane_radial_raw(g, p, x2, s, n_jac, mid_panels)
                for n_jac, mid_panels, _ in _HALFPLANE_LEVELS]
    else:
        vals = [_halfplane_raw(g, x1, x2, s, *lv) for lv in _HALFPLANE_LEVELS]
    # for g == 1 the raw integral is x2^{-s} pi^2 / sin(pi s)
    scale = x2 ** s * float(np.sin(np.pi * s)) / np.pi ** 2
    coarse, fine = (scale * v for v in vals)
    return fine, abs(fine - coarse)


def kappa_constant(s):
    """The angular constant int_{5pi/4}^{7pi/4} |sin th|^{-s} dth appearing
    in the lower bound of the log-correction example; |sin| stays away from
    zero on this sector, so two Gauss panels suffice."""
    nodes, w = gl8_panels(np.array([1.25, 1.5, 1.75]) * np.pi)
    return float(w @ np.abs(np.sin(nodes)) ** (-s))
