"""Quadrature building blocks for the singular-kernel integrals.

The radial direction of the operator integral is handled in three pieces:
a Gauss-Jacobi rule on the near ball that absorbs the r^{1-2s} behaviour of
the symmetrized integrand exactly, adaptive Gauss-Kronrod panels on the mid
range with pre-splits at declared kink radii, and a Gauss-Jacobi rule in the
reciprocal variable for the tail, which absorbs the declared power growth.
A mid panel costs the 15 nodes of the nested G7/K15 pair: K15 gives the
value and the |f| mass, and G7, on every other K15 node, the error estimate
|K15 - G7|.  A mid panel with an end on a kink radius takes the same 15
nodes through the graded map r = a + (b - a) t^3, t = (X + 1)/2 (mirrored
for a kink at b, t^3 / (t^3 + (1 - t)^3) for kinks at both ends), with the
Jacobian on the node values (Sidi 1993): the barriers vanish like
|r - r_k|^alpha at their kinks, which plain panels reach only by bisecting
into each kink, and the map smooths that power so that the embedded
estimate still holds.  A bisected graded panel passes the grading only to
the half that touches the kink.
``radial_integrals`` runs this rule on a batch of directions at once, each
about its own point: every direction keeps its own panels and refinement
decisions, while each stage (the first pass, then each bisection sweep)
evaluates the nodes of all directions in chunks of at most NODE_CAP nodes,
one call of the integrand each.  Angular integration (dim 2) uses
adaptive Clenshaw-Curtis panels whose embedded coarse rule shares nodes
with the fine one.

The deterministic Poisson integrals (harmonic extension, ball and half-plane
Poisson quadratures) share the fixed 8-point Gauss-Legendre panel rule below:
``gl8_panels`` turns a 2-D array of panel edges, one row per evaluation point
or angle, into nodes and weights, and ``graded_edges``/``periodic_edges``
build those rows.  Rows of different lengths are padded by repeating their
end edge, so the padding panels have zero width and contribute nothing.

The GL8 and G7/K15 rules are literal tables.  The Gauss-Jacobi rules
(``gauss_jacobi_01``) are built from their three-term recurrence with numpy
alone, so this module imports nothing from scipy: scipy.special, with
scipy.linalg behind it, more than doubled a quadrature command's cold start
and took a third of its memory.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

# the 8-point Gauss-Legendre rule on [-1, 1]: its 4 positive nodes,
# ascending, and their weights, as scipy.special.roots_legendre(8) returns
# them (round-trip literals, equal bit for bit); the rule is mirrored by
# symmetry.  numpy's leggauss(8) differs from it by up to 1.4e-15 in the
# weights.
_GL8_HALF = (0.18343464249564984,
             0.525532409916329,
             0.7966664774136267,
             0.9602898564975363)
_GL8_HALF_W = (0.36268378337836205,
               0.3137066458778876,
               0.22238103445337473,
               0.10122853629037562)
_GL8 = (np.concatenate([-np.array(_GL8_HALF[::-1]), _GL8_HALF]),
        np.concatenate([_GL8_HALF_W[::-1], _GL8_HALF_W]))

# the nested Gauss-Kronrod pair G7/K15 on [-1, 1] (Kronrod 1965; the QUADPACK
# table, Piessens et al. 1983): the 8 nonnegative K15 nodes, descending, and
# their weights; G7's nodes are K15's odd-indexed ones (0.949..., 0.741...,
# 0.405..., 0), with the 4 weights below.  Both rules are mirrored by symmetry.
_K15_HALF = (0.991455371120812639206854697526329,
             0.949107912342758524526189684047851,
             0.864864423359769072789712788640926,
             0.741531185599394439863864773280788,
             0.586087235467691130294144838258730,
             0.405845151377397166906606412076961,
             0.207784955007898467600689403773245,
             0.000000000000000000000000000000000)
_K15_HALF_W = (0.022935322010529224963732008058970,
               0.063092092629978553290700663189204,
               0.104790010322250183839876322541518,
               0.140653259715525918745189590510238,
               0.169004726639267902826583426598550,
               0.190350578064785409913256402421014,
               0.204432940075298892414161999234649,
               0.209482141084727828012999174891714)
_G7_HALF_W = (0.129484966168869693270611432679082,
              0.279705391489276667901467771423780,
              0.381830050505118944950369775488975,
              0.417959183673469387755102040816327)


def _mirror(half, sign=1.0):
    """The values at the nonnegative nodes ``half`` (0 last), extended to the
    mirrored negative nodes: sign -1 for nodes, +1 for weights."""
    half = np.array(half)
    return np.concatenate([half, sign * half[-2::-1]])


_K15_X = _mirror(_K15_HALF, -1.0)
_K15_W = _mirror(_K15_HALF_W)
_G7_W = _mirror(_G7_HALF_W)
# the mid-panel rule as ``_rule_sums`` takes it: the weights of K15 and of
# G7, and the G7 columns among the K15 nodes
_MID_RULE = (_K15_W, _G7_W, slice(1, None, 2))

# quadrature nodes per chunk of a batched Poisson integral or of a stage of
# the radial rule: large enough to amortize the Python overhead, small
# enough that the temporaries stay in cache and peak memory stays flat
# (1 << 13 was the fastest of 1 << 12 ... 1 << 17 for the Poisson integrals
# on a 2-vCPU Xeon, with peaks under 1 MB)
NODE_CAP = 1 << 13

# panel edges closer than this merge into one
MERGE_TOL = 1e-13


@lru_cache(maxsize=64)
def clenshaw_curtis(n):
    """Nodes (descending) and weights of the (n+1)-point CC rule on [-1,1].

    n must be even; the (n/2+1)-point rule uses every other node.
    """
    if n % 2 or n < 2:
        raise ValueError("n must be even and >= 2")
    j = np.arange(n + 1)
    theta = j * np.pi / n
    w = np.zeros(n + 1)
    w[0] = w[n] = 1.0 / (n ** 2 - 1.0)
    for jj in range(1, n):
        acc = 1.0
        for k in range(1, n // 2):
            acc -= 2.0 * np.cos(2.0 * k * theta[jj]) / (4.0 * k ** 2 - 1.0)
        acc -= np.cos(n * theta[jj]) / (n ** 2 - 1.0)
        w[jj] = 2.0 * acc / n
    return np.cos(theta), w


# Newton steps that polish the eigenvalue nodes of ``gauss_jacobi_01``
_NEWTON_STEPS = 2


@lru_cache(maxsize=256)
def gauss_jacobi_01(n, beta):
    """Nodes (ascending) and weights of the n-point Gauss rule
    int_0^1 t^beta f(t) dt = sum w f(t), for beta > -1.

    It is the Gauss-Jacobi rule for the weight (1 + x)^beta on [-1, 1]
    mapped to [0, 1] by t = (1 + x)/2, built from its three-term recurrence
    alone (Golub & Welsch 1969).  The recurrence coefficients are the Jacobi
    ones for alpha = 0, those of scipy.special.roots_jacobi, halved and
    shifted by the map.  The nodes are the eigenvalues of the Jacobi matrix,
    polished by Newton steps on the recurrence.  The weights are the
    Christoffel numbers 1 / sum_k p_k(t)^2 of the orthonormal polynomials
    p_k, scaled to sum to the exact moment 1/(beta + 1); no Gamma function
    is needed."""
    k = np.arange(1, n, dtype=float)
    c = 2.0 * k + beta
    diag = np.concatenate([[(beta + 1.0) / (beta + 2.0)],
                           0.5 + 0.5 * beta * beta / (c * (c + 2.0))])
    off = k * (k + beta) / (c * np.sqrt(c * c - 1.0))
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    for _ in range(_NEWTON_STEPS):
        p_n, dp_n, _ = _recurrence(t, diag, off, beta)
        t = t - p_n / dp_n
    w = 1.0 / _recurrence(t, diag, off, beta)[2]
    mu0 = 1.0 / (beta + 1.0)
    w *= mu0 / w.sum()
    # the rule sums add the weights in np.sum's order: the rounding residual
    # goes to the first weight, largest first, that makes this sum the
    # moment exactly, so that a constant's two levels agree
    for i in np.argsort(-w):
        exact = w.copy()
        exact[i] += mu0 - w.sum()
        if exact.sum() == mu0:
            w = exact
            break
    # every caller shares the cached arrays
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _recurrence(t, diag, off, beta):
    """At the points t: e_n p_n, its derivative, and sum_{k<n} p_k^2, where
    p_k are the orthonormal polynomials of t^beta on [0, 1], with the
    recurrence t p_k = e_{k+1} p_{k+1} + diag[k] p_k + e_k p_{k-1} and
    e_k = off[k - 1] (n = len(diag))."""
    e = np.concatenate([[0.0], off, [1.0]])
    p_prev = dp_prev = squares = np.zeros_like(t)
    p, dp = np.full_like(t, np.sqrt(beta + 1.0)), np.zeros_like(t)
    for j, d in enumerate(diag):
        squares = squares + p * p
        p_prev, p = p, ((t - d) * p - e[j] * p_prev) / e[j + 1]
        dp_prev, dp = dp, (p_prev + (t - d) * dp - e[j] * dp_prev) / e[j + 1]
    return p, dp, squares


def mid_panels(lo, hi, kinks, n_min):
    """Initial mid-range panels of D directions, grouped by direction.

    Direction k gets max(n_min, 2 per decade) log-spaced panels on
    [lo[k], hi[k]] (a scalar lo is shared), split at the radii of ``kinks``
    (a (D, m) array, padded with NaN) strictly inside.  After such a split,
    an edge within 1e-13 (relative, absolute below 1) of the previous kept
    edge is dropped, except the end edge hi[k].  Returns the panel ends a,
    b and the direction index of each panel.
    """
    n_dir = len(hi)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), hi.shape)
    n = np.maximum(np.ceil(2.0 * np.log10(hi / lo)).astype(np.int64),
                   max(n_min, 1))
    inside = (kinks > lo[:, None]) & (kinks < hi[:, None])
    # rows are padded with their end edge, which sorts last
    width = int(n.max()) + 1 + kinks.shape[1]
    edges = np.repeat(hi[:, None], width, axis=1)
    for m in np.unique(n):
        rows = np.nonzero(n == m)[0]
        edges[rows, :m + 1] = np.geomspace(lo[rows], hi[rows], m + 1, axis=1)
    edges[:, width - kinks.shape[1]:] = np.where(inside, kinks, hi[:, None])
    edges.sort(axis=1)
    ends = n + inside.sum(axis=1)
    # drop near-duplicates that would create degenerate panels, but never
    # the end edge
    keep = merge_keep(edges, 1e-13 * np.maximum(np.abs(edges[:, 1:]), 1.0))
    keep |= ~inside.any(axis=1)[:, None]
    keep[np.arange(n_dir), ends] = True
    keep &= np.arange(width) <= ends[:, None]
    rows = np.nonzero(keep)[0]
    kept = edges[keep]
    same = rows[:-1] == rows[1:]
    return kept[:-1][same], kept[1:][same], rows[:-1][same]


class RadialIntegrals(NamedTuple):
    """Per-direction pieces of the radial integral, with the work done on
    each direction: quadrature nodes (``n_evals``) and mid-panel
    bisections."""

    near: np.ndarray
    far: np.ndarray
    err: np.ndarray
    mass: np.ndarray
    n_evals: np.ndarray
    bisections: np.ndarray


# bisection sweeps of the mid panels per direction
_MAX_SWEEPS = 40


def _pymax(first, *rest):
    """Elementwise ``max(first, *rest)`` with Python's rule: a later value
    replaces the running maximum only if it compares greater, so a NaN
    never wins over a number."""
    out = first
    for v in rest:
        out = np.where(v > out, v, out)
    return out


def _jacobi_rule(n, beta):
    """Nodes of the n-point Gauss-Jacobi rule on [0, 1] followed by those of
    its embedded half-order rule, the two weight vectors and the columns of
    the embedded rule."""
    t1, w1 = gauss_jacobi_01(n, beta)
    t0, w0 = gauss_jacobi_01(max(n // 2, 4), beta)
    return np.concatenate([t1, t0]), w1, w0, slice(n, None)


def _rule_sums(vals, w1, w0, coarse, scale):
    """Value, embedded error and |f| mass of each row of ``vals``, whose
    first len(w1) columns are the nodes of a rule with weights w1 and whose
    columns ``coarse`` are those of its embedded rule with weights w0: the
    appended half-order nodes of ``_jacobi_rule``, or the G7 nodes among the
    K15 nodes of ``_panel_nodes``."""
    v1 = scale * np.sum(vals[:, :len(w1)] * w1, axis=1)
    v0 = scale * np.sum(vals[:, coarse] * w0, axis=1)
    mass = scale * np.sum(np.abs(vals[:, :len(w1)]) * w1, axis=1)
    return v1, np.abs(v1 - v0), mass


# the power of the graded map r = a + (b - a) t^3, t = (X + 1)/2, of a mid
# panel with a kink at its end a: at a kink |r - r_k|^alpha the graded
# integrand is t^(3 alpha + 2) times a smooth function, which the K15 rule
# resolves without bisecting into the kink (Sidi 1993).  Chosen by the
# nodes of criteria 1-4 and criterion 4's beta bracket, one pass each:
# 1.34M at power 2, 1.25M at 3, 1.27M at 4 and 1.31M at 5, against 2.25M
# for plain panels.
_GRADING = 3


def _graded_tables(p):
    """Per kink flag (0 none, 1 at a, 2 at b, 3 at both ends), the K15
    nodes as offsets in [0, 1] from the panel end they are measured from,
    whether that end is a, and the Jacobian of the map at each node.  The
    map is t^p toward a kink at a, 1 - (1 - t)^p toward one at b and
    t^p / (t^p + (1 - t)^p) toward both.  Each node is measured from its
    nearer graded end, so that a node close to a kink is not rounded
    against the panel's other end."""
    t = (_K15_X + 1.0) / 2.0
    u = (1.0 - _K15_X) / 2.0            # 1 - t, without the cancellation
    both = t ** p + u ** p
    low = t <= 0.5
    off = np.stack([t, t ** p, u ** p,
                    np.where(low, t ** p, u ** p) / both])
    from_a = np.stack([np.ones(15, bool), np.ones(15, bool),
                       np.zeros(15, bool), low])
    jac = np.stack([np.ones(15), p * t ** (p - 1), p * u ** (p - 1),
                    p * (t * u) ** (p - 1) / (both * both)])
    return off, from_a, jac


_GRADED_OFF, _GRADED_FROM_A, _GRADED_JAC = _graded_tables(_GRADING)


def _panel_nodes(a, b, kink):
    """The 15 K15 nodes of each panel [a, b], one row per panel, the
    panels' half-widths, and the Jacobian of each node.  A panel whose
    ``kink`` flag is 0 takes the plain nodes mid + half X (Jacobian 1);
    one with a kink at an end (1 at a, 2 at b, 3 at both) takes the graded
    nodes of ``_graded_tables``."""
    mid = (a + b) / 2.0
    half = (b - a) / 2.0
    x = mid[:, None] + half[:, None] * _K15_X
    jac = np.ones(x.shape)
    g = np.flatnonzero(kink)
    if len(g):
        f = kink[g]
        width = (b[g] - a[g])[:, None] * _GRADED_OFF[f]
        x[g] = np.where(_GRADED_FROM_A[f], a[g, None] + width,
                        b[g, None] - width)
        jac[g] = _GRADED_JAC[f]
    return x, half, jac


def _row_chunks(sizes):
    """Consecutive slices of rows whose ``sizes`` sum to at most NODE_CAP
    (a single row may exceed it)."""
    ends = np.cumsum(sizes)
    start = 0
    while start < len(ends):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + NODE_CAP,
                                                  side="right")))
        yield slice(start, stop)
        start = stop


def radial_integrals(pair_avg, u_x, s, rho, breakpoints, growth, tail_start,
                     rel_tol, n_jacobi, init_panels, max_panels):
    """The operator integral int_0^inf (u_x - pair_avg(r)) r^{-1-2s} dr
    along D directions at once, split as near ([0, rho]) and far (the rest).

    ``u_x`` and ``rho`` are per direction, or scalars shared by all.
    ``pair_avg(r, k)`` returns (u(x_k + r theta_k) + u(x_k - r theta_k)) / 2
    for node radii r on direction indices k (equal-length arrays) in one
    field call; ``breakpoints`` is the (D, m) kink table of
    ``Field.radial_breakpoints``: row i holds the kink radii of direction i,
    padded with +inf (every non-finite entry is padding).  Each direction
    keeps its own rule: near Gauss-Jacobi nodes, mid panels pre-split at its
    kinks and bisected adaptively, a tail in the reciprocal variable from
    the largest of ``tail_start``, 4 rho and twice its last kink.  A mid
    panel end within 1e-13 max(|r_k|, 1) of one of the direction's kink
    radii r_k is a kink end: the panel's nodes are graded toward it (see
    ``_panel_nodes``), and of its two halves only the one that shares
    that end stays graded.  Panel state lives in one stacked array, its
    columns tagged with the direction index, in each direction's panel
    order.  Every stage (the first pass, then each bisection sweep) gathers
    the nodes of all directions and evaluates them in consecutive chunks of
    at most NODE_CAP nodes, one call of ``pair_avg`` each, so memory does
    not grow with the batch.  Per-direction sums run in panel order (``np.bincount`` adds in array
    order), so a direction's refinement decisions do not depend on the
    batch around it.
    """
    two_s = 2.0 * s
    kinks = np.asarray(breakpoints, dtype=float)
    kinks = np.where(np.isfinite(kinks), kinks, np.nan)
    n_dir = len(kinks)
    dirs = np.arange(n_dir)
    u_x = np.broadcast_to(np.asarray(u_x, dtype=float), (n_dir,))
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (n_dir,))
    # the tail starts beyond every kink so its transform sees a smooth field
    r_far = np.maximum(np.maximum(tail_start, 4.0 * rho),
                       2.0 * np.max(np.nan_to_num(kinks), axis=1, initial=0.0))
    a, b, k = mid_panels(rho, r_far, kinks, init_panels)
    # mid-panel state, one row each: ends, K15 value, G7 error, |f| mass and
    # the kink flag: 1 if a is within 1e-13 max(|r_k|, 1) of one of the
    # direction's kink radii r_k, plus 2 if b is
    panels = np.zeros((6, len(a)))
    panels[0], panels[1] = a, b
    near_kink = 1e-13 * np.maximum(np.abs(kinks), 1.0)
    for bit, end in ((1, a), (2, b)):
        panels[5] += bit * np.any(
            np.abs(end[:, None] - kinks[k]) <= near_kink[k], axis=1)
    a, b, val, err, mass, kink = panels

    def mid_sums(pa, x_mid, half, jac, k):
        """K15 value, G7 error and mass of the panels with nodes x_mid."""
        return _rule_sums(
            (u_x[k, None] - pa.reshape(x_mid.shape)) * x_mid ** (-1.0 - two_s)
            * jac, *_MID_RULE, half)

    # near ball: integrand = (delta u / r^2) * r^{1-2s}; the tail is mapped
    # by t = R/r, so that t^{growth} * pair_avg(R/t) is smooth and the
    # Jacobi weight t^{2s-1-growth} carries the power law
    beta_near = 1.0 - two_s
    t_near, *near_rule = _jacobi_rule(n_jacobi, beta_near)
    t_tail, *tail_rule = _jacobi_rule(n_jacobi, two_s - 1.0 - growth)
    n_near, n_tail, n_mid = len(t_near), len(t_tail), len(_K15_X)
    counts = np.bincount(k, minlength=n_dir)
    first = np.cumsum(counts) - counts      # each direction's first panel
    n_evals = n_near + n_tail + n_mid * counts
    dir_sums = np.empty((6, n_dir))  # near, err, mass; tail pair, err, mass
    for d in _row_chunks(n_evals):
        p = slice(first[d.start], first[d.stop - 1] + counts[d.stop - 1])
        r_near = rho[d, None] * t_near
        x_mid, half, jac = _panel_nodes(a[p], b[p], kink[p].astype(int))
        pa = pair_avg(np.concatenate([r_near.ravel(),
                                      (r_far[d, None] / t_tail).ravel(),
                                      x_mid.ravel()]),
                      np.concatenate([np.repeat(dirs[d], n_near),
                                      np.repeat(dirs[d], n_tail),
                                      np.repeat(k[p], n_mid)]))
        pa_near, pa_tail, pa_mid = np.split(
            pa, np.cumsum([r_near.size, len(r_near) * n_tail]))
        dir_sums[:3, d] = _rule_sums(
            (u_x[d, None] - pa_near.reshape(r_near.shape)) / (r_near * r_near),
            *near_rule, rho[d] ** (beta_near + 1.0))
        dir_sums[3:, d] = _rule_sums(
            pa_tail.reshape(len(r_near), n_tail) * t_tail ** growth,
            *tail_rule, 1.0)
        val[p], err[p], mass[p] = mid_sums(pa_mid, x_mid, half, jac, k[p])
    near, err_near, mass_near, tail_pair, err_tail, mass_tail = dir_sums

    # the near and mid pieces largely cancel for nearly harmonic fields, so
    # the integrand mass, not the value, sets the relative-error scale
    scale0 = _pymax(np.abs(near + np.bincount(k, val, n_dir)),
                    0.25 * (mass_near + np.bincount(k, mass, n_dir)),
                    1e-300)
    tol = rel_tol * scale0
    bisections = np.zeros(n_dir, dtype=np.int64)
    for _ in range(_MAX_SWEEPS):
        counts = np.bincount(k, minlength=n_dir)
        starts = np.cumsum(counts) - counts
        refine = ~(np.bincount(k, err, n_dir) <= tol) & (counts < max_panels)
        if not np.any(refine):
            break
        # split every panel holding more than its share of the budget, at
        # most as many as the direction has room for, first in panel order
        cut = _pymax(tol / np.maximum(counts, 1),
                     np.maximum.reduceat(err, starts) * 0.25)
        split = refine[k] & (err >= cut[k])
        taken = np.cumsum(split)
        rank = taken - 1 - (taken - split)[starts][k]
        split &= rank < (max_panels - counts)[k]
        idx = np.nonzero(split)[0]
        if len(idx) == 0:
            break
        # halves are appended after the kept panels, the last split first;
        # each half keeps the kink flag of the end it shares with its panel
        idx = idx[np.lexsort((-idx, k[idx]))]
        m = (a[idx] + b[idx]) / 2.0
        halves = np.empty((6, 2 * len(idx)))
        new_a, new_b, new_val, new_err, new_mass, new_kink = halves
        new_a[0::2], new_a[1::2] = a[idx], m
        new_b[0::2], new_b[1::2] = m, b[idx]
        flags = kink[idx].astype(int)
        new_kink[0::2], new_kink[1::2] = flags & 1, flags & 2
        new_k = np.repeat(k[idx], 2)
        for p in _row_chunks(np.full(len(new_a), n_mid)):
            x_new, half, jac = _panel_nodes(new_a[p], new_b[p],
                                            new_kink[p].astype(int))
            pa = pair_avg(x_new.ravel(), np.repeat(new_k[p], n_mid))
            new_val[p], new_err[p], new_mass[p] = mid_sums(pa, x_new, half,
                                                           jac, new_k[p])
        split_dirs = np.bincount(k[idx], minlength=n_dir)
        n_evals += 2 * n_mid * split_dirs
        bisections += split_dirs
        # kept panels, then halves, stably by direction: one take from both
        # side by side, once the row views no longer hold the old panels
        keep = np.flatnonzero(~split)
        k = np.concatenate([k.take(keep), new_k])
        order = np.argsort(k, kind="stable")
        k = k.take(order)
        src = np.concatenate([keep, len(split) + np.arange(len(new_k))])
        panels = np.concatenate([panels, halves], axis=1)
        del a, b, val, err, mass, kink
        a, b, val, err, mass, kink = panels = panels.take(src.take(order),
                                                          axis=1)

    mid = np.bincount(k, val, n_dir)
    far_pow = r_far ** (-two_s)
    tail = u_x * far_pow / two_s - far_pow * tail_pair
    err = err_near + np.bincount(k, err, n_dir) + err_tail * far_pow
    mass = (mass_near + np.bincount(k, mass, n_dir) + mass_tail * far_pow
            + np.abs(u_x) * far_pow / two_s)
    return RadialIntegrals(near=near, far=mid + tail, err=err, mass=mass,
                           n_evals=n_evals, bisections=bisections)

# ---------------------------------------------------------------------------
# fixed GL8 panels, batched over rows

def gl8_panels(edges):
    """Nodes and weights of the 8-point Gauss-Legendre rule on the panels of
    each row of ``edges`` (shape (..., k+1), non-decreasing along the last
    axis).  Both outputs have shape (..., 8k), and sum(w * f(x)) along the
    last axis is the panel integral of f over the row.  A padding panel of
    zero width has zero weights, so it contributes exactly nothing as long
    as f is finite at its end edge."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    nodes = mid[..., None] + half[..., None] * _GL8[0]
    weights = half[..., None] * _GL8[1]
    shape = edges.shape[:-1] + (-1,)
    return nodes.reshape(shape), weights.reshape(shape)


def bisect_edges(edges):
    """Insert the midpoint of every panel along the last axis."""
    edges = np.asarray(edges, dtype=float)
    out = np.empty(edges.shape[:-1] + (2 * edges.shape[-1] - 1,))
    out[..., 0::2] = edges
    out[..., 1::2] = 0.5 * (edges[..., :-1] + edges[..., 1:])
    return out


def octaves(inner, outer):
    """Number of octave steps from scale ``inner`` up to ``outer`` (0 when
    inner >= outer), elementwise."""
    inner, outer = np.broadcast_arrays(np.asarray(inner, dtype=float),
                                       np.asarray(outer, dtype=float))
    k = np.zeros(inner.shape, dtype=np.int64)
    fine = inner < outer
    k[fine] = np.ceil(np.log2(outer[fine] / inner[fine]))
    return k


def graded_edges(center, inner, outer):
    """Octave-graded edges around each center, on both sides: center -+
    inner 2^j for the powers below outer, then center -+ outer.  The last
    axis holds the edges of one center, sorted and padded to a common length
    with repeated end edges; a center with inner >= outer gets just
    [center - outer, center + outer]."""
    center, inner, outer = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (center, inner, outer)))
    k = octaves(inner, outer)
    offs = inner[..., None] * 2.0 ** np.arange(int(k.max(initial=0)) + 1)
    offs = np.concatenate([np.minimum(offs, outer[..., None]),
                           outer[..., None]], axis=-1)
    mid = np.where(inner < outer, center, center - outer)[..., None]
    return np.concatenate([center[..., None] - offs[..., ::-1], mid,
                           center[..., None] + offs], axis=-1)


def merge_keep(srt, tol):
    """Mask of the edges kept when each row of ``srt`` (sorted ascending) is
    merged: the first edge is kept, and every later edge is kept if it lies
    more than ``tol`` above the previous kept edge.  ``tol`` broadcasts over
    the gaps ``srt[:, 1:]``."""
    tol = np.broadcast_to(tol, srt[:, 1:].shape)
    keep = np.concatenate([np.ones((len(srt), 1), dtype=bool),
                           np.diff(srt, axis=1) > tol], axis=1)
    # comparing with the previous edge equals comparing with the previous
    # kept edge unless dropped edges chain beyond tol; such rows are merged
    # one edge at a time
    cols = np.arange(srt.shape[1])
    last = np.maximum.accumulate(np.where(keep, cols, 0), axis=1)
    chained = ~keep[:, 1:] & (
        srt[:, 1:] - np.take_along_axis(srt, last, axis=1)[:, :-1] > tol)
    for i in np.nonzero(np.any(chained, axis=1))[0]:
        prev = srt[i, 0]
        for j in range(1, srt.shape[1]):
            keep[i, j] = srt[i, j] - prev > tol[i, j - 1]
            if keep[i, j]:
                prev = srt[i, j]
    return keep


def periodic_edges(centers, scales, period):
    """Sorted panel edges on one period per row, graded around each anchor
    (centers[i, j], scales[i, j]) down to scale max(scales, 1e-14).  The
    period of row i is centred on its first anchor; edges are wrapped into
    it, and an edge within 1e-13 of the previous kept edge is dropped.  Rows
    are padded with their last edge."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    scales = np.atleast_2d(np.asarray(scales, dtype=float))
    n = centers.shape[0]
    lo = centers[:, :1] - period / 2.0
    hi = centers[:, :1] + period / 2.0
    e = graded_edges(centers, np.maximum(scales, 1e-14), period / 2.0)
    e = e.reshape(n, -1)
    e = np.clip((e - lo) % period + lo, lo, hi)
    srt = np.sort(np.concatenate([lo, e, hi], axis=1), axis=1)
    keep = merge_keep(srt, MERGE_TOL)
    kept = srt[keep]                    # row by row, ascending
    count = keep.sum(axis=1)
    out = np.repeat(kept[np.cumsum(count) - 1][:, None], count.max(), axis=1)
    out[np.nonzero(keep)[0], (np.cumsum(keep, axis=1) - 1)[keep]] = kept
    return out


def node_chunks(row_nodes):
    """Index arrays that split rows with ``row_nodes`` quadrature nodes each
    into chunks of at most NODE_CAP nodes (a single row may exceed it).
    Rows are taken in order of increasing node count, so a chunk's rows have
    similar widths and little padding."""
    row_nodes = np.asarray(row_nodes, dtype=np.int64)
    order = np.argsort(row_nodes, kind="stable")
    srt = row_nodes[order]
    start = 0
    while start < len(order):
        sizes = np.arange(1, len(order) - start + 1)
        size = max(1, int(np.searchsorted(sizes * srt[start:], NODE_CAP,
                                          side="right")))
        yield order[start:start + size]
        start += size
