"""Quadrature building blocks for the singular-kernel integrals.

The radial direction of the operator integral is handled in three pieces:
a Gauss-Jacobi rule on the near ball that absorbs the r^{1-2s} behaviour of
the symmetrized integrand exactly, adaptive Gauss-Legendre panels on the mid
range with pre-splits at declared kink radii, and a Gauss-Jacobi rule in the
reciprocal variable for the tail, which absorbs the declared power growth.
Angular integration (dim 2) uses adaptive Clenshaw-Curtis panels whose
embedded coarse rule shares nodes with the fine one.

The deterministic Poisson integrals (harmonic extension, ball and half-plane
Poisson quadratures) share the fixed 8-point Gauss-Legendre panel rule below:
``gl8_panels`` turns a 2-D array of panel edges, one row per evaluation point
or angle, into nodes and weights, and ``graded_edges``/``periodic_edges``
build those rows.  Rows of different lengths are padded by repeating their
end edge, so the padding panels have zero width and contribute nothing.
"""

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

_GL16 = roots_legendre(16)
_GL8 = roots_legendre(8)

# quadrature nodes per chunk of a batched Poisson integral: large enough to
# amortize the Python overhead, small enough that the temporaries stay in
# cache and peak memory stays flat (1 << 13 was the fastest of 1 << 12 ...
# 1 << 17 on a 2-vCPU Xeon, with peaks under 1 MB)
NODE_CAP = 1 << 13


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


@lru_cache(maxsize=256)
def gauss_jacobi_01(n, beta):
    """Nodes/weights approximating int_0^1 t^beta f(t) dt = sum w f(t)."""
    x, w = roots_jacobi(n, 0.0, beta)
    return (x + 1.0) / 2.0, w * 0.5 ** (beta + 1.0)


def jacobi_pair(f, upper, n, beta):
    """Weighted integral int_0^upper t^beta f(t) dt with an embedded error
    estimate from the half-order rule.  f is vectorized."""
    t1, w1 = gauss_jacobi_01(n, beta)
    t0, w0 = gauss_jacobi_01(max(n // 2, 4), beta)
    scale = upper ** (beta + 1.0)
    nodes = np.concatenate([t1, t0]) * upper
    vals = f(nodes)
    v1 = scale * float(w1 @ vals[: len(t1)])
    v0 = scale * float(w0 @ vals[len(t1):])
    mass = scale * float(w1 @ np.abs(vals[: len(t1)]))
    return v1, abs(v1 - v0), mass, len(nodes)


class PanelSet:
    """Adaptive Gauss-Legendre panels with bisection refinement.

    Panels are evaluated in batches: each sweep gathers the nodes of all new
    panels into one call of the integrand.
    """

    def __init__(self, f, edges):
        self.f = f
        self.n_evals = 0
        self.panels = []  # (a, b, I16, err)
        self._add(list(zip(edges[:-1], edges[1:])))

    def _add(self, intervals):
        if not intervals:
            return
        a = np.array([p[0] for p in intervals])
        b = np.array([p[1] for p in intervals])
        mid = (a + b) / 2.0
        half = (b - a) / 2.0
        x16 = mid[:, None] + half[:, None] * _GL16[0][None, :]
        x8 = mid[:, None] + half[:, None] * _GL8[0][None, :]
        nodes = np.concatenate([x16.ravel(), x8.ravel()])
        vals = self.f(nodes)
        self.n_evals += len(nodes)
        m = len(intervals)
        v16 = vals[: 16 * m].reshape(m, 16)
        v8 = vals[16 * m:].reshape(m, 8)
        i16 = half * (v16 @ _GL16[1])
        i8 = half * (v8 @ _GL8[1])
        mass = half * (np.abs(v16) @ _GL16[1])
        for k in range(m):
            self.panels.append((a[k], b[k], float(i16[k]),
                                abs(float(i16[k] - i8[k])), float(mass[k])))

    @property
    def value(self):
        return float(sum(p[2] for p in self.panels))

    @property
    def err(self):
        return float(sum(p[3] for p in self.panels))

    @property
    def mass(self):
        return float(sum(p[4] for p in self.panels))

    def refine(self, tol_abs, max_panels, max_sweeps=40):
        for _ in range(max_sweeps):
            if self.err <= tol_abs or len(self.panels) >= max_panels:
                break
            errs = np.array([p[3] for p in self.panels])
            # split every panel holding more than its share of the budget
            cut = max(tol_abs / max(len(self.panels), 1), np.max(errs) * 0.25)
            idx = [i for i, p in enumerate(self.panels) if p[3] >= cut]
            if not idx:
                break
            room = max_panels - len(self.panels)
            idx = idx[:room]
            if not idx:
                break
            new = []
            for i in sorted(idx, reverse=True):
                a, b, _, _, _ = self.panels.pop(i)
                m = (a + b) / 2.0
                new.extend([(a, m), (m, b)])
            self._add(new)
        return self.value, self.err


def geometric_edges(a, b, n_min):
    """Log-spaced panel edges on [a, b] (a > 0), at least n_min panels and at
    least two panels per decade."""
    decades = np.log10(b / a)
    n = max(n_min, int(np.ceil(2.0 * decades)), 1)
    return np.geomspace(a, b, n + 1)


def merge_edges(edges, extra, lo, hi):
    pts = [e for e in extra if lo < e < hi]
    if not pts:
        return np.asarray(edges)
    merged = np.unique(np.concatenate([np.asarray(edges), np.asarray(pts)]))
    # drop near-duplicates that would create degenerate panels
    keep = [merged[0]]
    for e in merged[1:]:
        if e - keep[-1] > 1e-13 * max(abs(e), 1.0):
            keep.append(e)
    if keep[-1] < hi:
        keep.append(hi)
    return np.asarray(keep)


class RadialPiece:
    __slots__ = ("near", "far", "err", "mass", "n_evals")

    def __init__(self, near, far, err, mass, n_evals):
        self.near = near
        self.far = far
        self.err = err
        self.mass = mass
        self.n_evals = n_evals

    @property
    def total(self):
        return self.near + self.far


def radial_integral(pair_avg, u_x, s, rho, breakpoints, growth, far_cutoff,
                    rel_tol, n_jacobi, init_panels, max_panels):
    """One direction of the operator integral.

    pair_avg(r) = (u(x + r theta) + u(x - r theta)) / 2, vectorized.
    Returns the three-piece value of int_0^inf (u_x - pair_avg(r)) r^{-1-2s} dr
    split as near ([0, rho]) and far (the rest).
    """
    two_s = 2.0 * s

    # near ball: integrand = (delta u / r^2) * r^{1-2s}
    def g2(r):
        return (u_x - pair_avg(r)) / (r * r)

    near, err_near, mass_near, ev_near = jacobi_pair(g2, rho, n_jacobi, 1.0 - two_s)

    # far cutoff beyond every kink so the tail transform sees a smooth field
    bps = [b for b in breakpoints if b > 0.0]
    r_far = max(far_cutoff, 4.0 * rho)
    if bps:
        r_far = max(r_far, 2.0 * max(bps))

    def f_mid(r):
        return (u_x - pair_avg(r)) * r ** (-1.0 - two_s)

    edges = geometric_edges(rho, r_far, init_panels)
    edges = merge_edges(edges, bps, rho, r_far)
    ps = PanelSet(f_mid, edges)
    # the near and mid pieces largely cancel for nearly harmonic fields, so
    # the integrand mass, not the value, sets the relative-error scale
    scale0 = max(abs(near + ps.value), 0.25 * (mass_near + ps.mass), 1e-300)
    ps.refine(tol_abs=rel_tol * scale0, max_panels=max_panels)
    mid, err_mid = ps.value, ps.err

    # tail: u_x term is exact; the pair average is transformed by t = R/r so
    # that t^{growth} * pair_avg(R/t) is smooth and the Jacobi weight
    # t^{2s-1-growth} carries the power law.
    beta_tail = two_s - 1.0 - growth

    def h_tail(t):
        return pair_avg(r_far / t) * t ** growth

    tail_pair, err_tail, mass_tail, ev_tail = jacobi_pair(
        h_tail, 1.0, n_jacobi, beta_tail)
    tail = u_x * r_far ** (-two_s) / two_s - r_far ** (-two_s) * tail_pair
    err_tail *= r_far ** (-two_s)
    mass_tail *= r_far ** (-two_s)

    err = err_near + err_mid + err_tail
    mass = mass_near + ps.mass + mass_tail + abs(u_x) * r_far ** (-two_s) / two_s
    return RadialPiece(near=near, far=mid + tail, err=err, mass=mass,
                       n_evals=ev_near + ps.n_evals + ev_tail)


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


def periodic_edges(centers, scales, period):
    """Sorted panel edges on one period per row, graded around each anchor
    (centers[i, j], scales[i, j]) down to scale max(scales, 1e-14).  The
    period of row i is centred on its first anchor; edges are wrapped into
    it, and an edge within 1e-13 of the previous kept edge is dropped.  Rows
    are padded with their last edge."""
    merge_tol = 1e-13
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    scales = np.atleast_2d(np.asarray(scales, dtype=float))
    n = centers.shape[0]
    lo = centers[:, :1] - period / 2.0
    hi = centers[:, :1] + period / 2.0
    e = graded_edges(centers, np.maximum(scales, 1e-14), period / 2.0)
    e = e.reshape(n, -1)
    e = np.clip((e - lo) % period + lo, lo, hi)
    srt = np.sort(np.concatenate([lo, e, hi], axis=1), axis=1)
    keep = np.concatenate([np.ones((n, 1), dtype=bool),
                           np.diff(srt, axis=1) > merge_tol], axis=1)
    # comparing with the previous edge equals comparing with the previous
    # kept edge unless dropped edges chain beyond merge_tol; such rows are
    # merged one edge at a time
    cols = np.arange(srt.shape[1])
    last = np.maximum.accumulate(np.where(keep, cols, 0), axis=1)
    chained = ~keep & (srt - np.take_along_axis(srt, last, axis=1) > merge_tol)
    for i in np.nonzero(np.any(chained, axis=1))[0]:
        prev = srt[i, 0]
        for j in range(1, srt.shape[1]):
            keep[i, j] = srt[i, j] - prev > merge_tol
            if keep[i, j]:
                prev = srt[i, j]
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
