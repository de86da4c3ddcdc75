"""Independent oracles for test expectations.

Everything here goes through scipy's adaptive Gauss-Kronrod quadrature with
explicit breakpoints and substitutions, or through a directly summed series,
sharing no code with the package's panel machinery or its special functions.
"""

import numpy as np
from scipy.integrate import quad


def op_1d_power_plus(alpha, s, x, shift=0.0):
    """-(-Delta)^s of ((t + shift)_+)^alpha at x, by adaptive quadrature
    beyond the near field: 2 * int_0^inf (u(x) - (u(x+r)+u(x-r))/2)
    r^{-1-2s} dr.  On the near field r < rho = |x + shift| / 2 the
    difference is summed as its binomial series instead, integrated term by
    term: -sum_k C(alpha, 2k) X^(alpha-2k) r^(2k) with X = x + shift, and 0
    where X <= 0 (u vanishes there).  Quadrature of the near field lost the
    O(r^2) difference to rounding above s = 1/2 (at s = alpha = 0.8, where
    the value is 0, it returned -4.3e-4 +- 4.1e-6 at x = 1 and 8.4e10 at
    x = 0.1)."""
    def u(t):
        t = t + shift
        return t ** alpha if t > 0 else 0.0

    ux = u(x)

    def integrand(r):
        return (ux - 0.5 * (u(x + r) + u(x - r))) * r ** (-1.0 - 2.0 * s)

    X = x + shift
    rho = 0.5 * abs(X)
    v_near = e_near = 0.0
    if X > 0.0:
        # int_0^rho r^(2k-1-2s) dr = rho^(2k-2s) / (2k-2s); each term is
        # (rho / X)^2 = 1/4 of the last times a bounded factor
        coef = 1.0      # C(alpha, k) for k = 0, 2, 4, ...
        for k in range(2, 400, 2):
            coef *= (alpha - k + 2.0) * (alpha - k + 1.0) / ((k - 1.0) * k)
            term = -coef * X ** (alpha - k) * rho ** (k - 2.0 * s) \
                / (k - 2.0 * s)
            v_near += term
            e_near = abs(term)
            if e_near <= 1e-18 * abs(v_near):
                break
    kink = abs(x + shift)
    pts = sorted({rho, kink, 2.0 * kink, 1.0 + abs(x)})
    v_mid, e_mid = quad(integrand, rho, 10.0 * pts[-1],
                        points=[pp for pp in pts if rho < pp < 10.0 * pts[-1]],
                        limit=400, epsabs=1e-13, epsrel=1e-12)
    # tail by the substitution r = T / t
    T = 10.0 * pts[-1]

    def tail(t):
        return integrand(T / t) * T / t ** 2

    v_tail, e_tail = quad(tail, 0.0, 1.0, limit=200,
                          epsabs=1e-13, epsrel=1e-12)
    return 2.0 * (v_near + v_mid + v_tail), 2.0 * (e_near + e_mid + e_tail)


def _beta_piece(s, w_hi):
    """int_0^{w_hi} w^{s-1} (1-w)^{-s} dw with endpoint substitutions that
    keep the integrand bounded."""
    total = 0.0
    lo_cut = min(w_hi, 0.5)
    # w = v^{1/s} flattens the w^{s-1} endpoint
    v_hi = lo_cut ** s
    f_lo = lambda v: (1.0 - v ** (1.0 / s)) ** (-s) / s
    piece, _ = quad(f_lo, 0.0, v_hi, limit=200, epsabs=1e-13, epsrel=1e-12)
    total += piece
    if w_hi > 0.5:
        # 1 - w = z^{1/(1-s)} flattens the (1-w)^{-s} endpoint
        z_lo = (1.0 - w_hi) ** (1.0 - s)
        z_hi = 0.5 ** (1.0 - s)
        f_hi = lambda z: (1.0 - z ** (1.0 / (1.0 - s))) ** (s - 1.0) / (1.0 - s)
        piece, _ = quad(f_hi, z_lo, z_hi, limit=200,
                        epsabs=1e-13, epsrel=1e-12)
        total += piece
    return total


def exit_law_tail_prob(s, r0):
    """P(exit radius > r0) by quadrature of the radial density
    (r^2-1)^{-s}/r, with the w = 1/r^2 substitution that makes both the
    total mass and the tail a beta-type integral."""
    total = _beta_piece(s, 1.0)
    tail = _beta_piece(s, 1.0 / r0 ** 2)
    return tail / total


def exit_law_median(s):
    """Median exit radius by bisection on the quadrature CDF."""
    lo, hi = 1.0 + 1e-12, 1e9
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if exit_law_tail_prob(s, mid) > 0.5:
            lo = mid
        else:
            hi = mid
    return np.sqrt(lo * hi)


def halfcircle_reduction_constant(s, density=None, nu_angle=0.0):
    """int_0^{2pi} a(theta(phi)) |cos(phi - nu_angle)|^{2s} dphi, the angular
    factor relating the planar operator on (x . nu)_+^alpha to the 1d one."""
    if density is None:
        f = lambda phi: np.abs(np.cos(phi - nu_angle)) ** (2.0 * s)
    else:
        def f(phi):
            th = np.array([[np.cos(phi), np.sin(phi)]])
            return float(density(th)[0]) \
                * abs(np.cos(phi - nu_angle)) ** (2.0 * s)
    kinks = sorted(((nu_angle + k * np.pi / 2) % (2.0 * np.pi)
                    for k in (1, 3)))
    val, _ = quad(f, 0.0, 2.0 * np.pi, points=kinks, limit=200)
    return val


def point_power_disk_extension(alpha, C0, center, radius, z0, x):
    """Harmonic extension into the disk (center, radius) of the datum
    C0 |y - z0|^alpha, z0 on the circle, at the points x (shape (n, 2)) with
    |x - center| <= 0.99 radius, by its Fourier series summed directly:
    on the circle the datum is C0 R^alpha |2 sin(phi/2)|^alpha, phi measured
    from the anchor, with coefficients a_k = c0 (-alpha/2)_k / (1+alpha/2)_k,
    so the extension is C0 R^alpha (c0 + 2 sum_k a_k rho^k cos(k theta)) at
    polar coordinates (rho R, theta) about the centre, theta measured from
    the anchor.  c0, the mean of |2 sin(phi/2)|^alpha, comes from adaptive
    quadrature, not from the Gamma function."""
    center = np.asarray(center, dtype=float)
    v = np.atleast_2d(np.asarray(x, dtype=float)) - center
    rho = np.hypot(v[:, 0], v[:, 1]) / radius
    if np.any(rho > 0.99):
        raise ValueError("the series oracle covers |x - c| <= 0.99 R only")
    w = np.asarray(z0, dtype=float) - center
    theta = np.arctan2(v[:, 1], v[:, 0]) - np.arctan2(w[1], w[0])
    # (1/pi) int_0^pi phi^alpha (2 sin(phi/2) / phi)^alpha dphi, the phi^alpha
    # endpoint taken by the algebraic weight
    c0 = quad(lambda phi: (np.sinc(phi / (2.0 * np.pi))) ** alpha, 0.0,
              np.pi, weight="alg", wvar=(alpha, 0.0), epsabs=1e-15,
              epsrel=1e-14, limit=200)[0] / np.pi
    # 0.99^8000 < 1e-34, far below the first coefficients
    k = np.arange(1, 8000)
    a = c0 * np.cumprod((k - 1.0 - 0.5 * alpha) / (k + 0.5 * alpha))
    series = np.sum(a * rho[:, None] ** k * np.cos(k * theta[:, None]), axis=1)
    return C0 * radius ** alpha * (c0 + 2.0 * series)


def _exit_radial_integral(f, s, r, rho_min):
    """int_{rho_min}^inf ((1 - r^2) / (rho^2 - 1))^s f(rho) drho for
    rho_min >= 1, by adaptive quadrature: the (rho - 1)^{-s} endpoint by the
    algebraic weight, geometric panels from 1 + (1 - r) to 2 (the kernel
    varies on the scale of the start point's depth 1 - r), and the tail by
    rho = 2 / t, whose t^{2s-1} endpoint takes the algebraic weight."""
    opts = dict(limit=200, epsabs=0.0, epsrel=1e-11)
    depth = 1.0 - r
    edges = [rho_min]
    if rho_min < 2.0:
        edges += [e for e in 1.0 + depth * 4.0 ** np.arange(40)
                  if rho_min < e < 2.0]
        edges.append(2.0)
    total = 0.0
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if k == 0 and lo == 1.0:
            g = lambda p: ((1.0 - r * r) / (p + 1.0)) ** s * f(p)
            total += quad(g, lo, hi, weight="alg", wvar=(-s, 0.0), **opts)[0]
        else:
            g = lambda p: ((1.0 - r * r) / (p * p - 1.0)) ** s * f(p)
            total += quad(g, lo, hi, **opts)[0]
    top = edges[-1]
    # rho = top / t: drho = top / t^2 dt, and the kernel ~ rho^{-2s}
    tail = lambda t: ((1.0 - r * r) * t * t / (top * top - t * t)) ** s \
        * f(top / t) * top / t ** 2 / t ** (2.0 * s - 1.0) if t > 0 else 0.0
    total += quad(tail, 0.0, 1.0, weight="alg", wvar=(2.0 * s - 1.0, 0.0),
                  **opts)[0]
    return total


def off_centre_exit_prob(s, r, rho_min=1.0, half_angle=np.pi):
    """P(|Y| > rho_min and the angle of Y lies within half_angle of the
    start point's) for the exit point Y of the 2s-stable process from the
    unit disk started at (r, 0), 0 <= r < 1.  The exit density is
    proportional to ((1 - r^2) / (|y|^2 - 1))^s |x - y|^{-2} (Blumenthal,
    Getoor and Ray, Trans. AMS 99, 1961); this integrates it in polar
    coordinates about the centre, the angle and the radius both by adaptive
    quadrature, and divides by the mass over the whole exterior, so no
    normalising constant enters."""
    opts = dict(limit=200, epsabs=0.0, epsrel=1e-12)

    def angular(h):
        # rho int_{-h}^{h} dtheta / |rho e^{i theta} - r|^2, even in theta,
        # peaked at theta = 0 with width about rho - r
        return lambda rho: 2.0 * rho * quad(
            lambda th: 1.0 / (rho * rho + r * r - 2.0 * r * rho * np.cos(th)),
            0.0, h, points=[min(h, 4.0 * (rho - r))] if h > 4.0 * (rho - r)
            else None, **opts)[0]

    part = _exit_radial_integral(angular(half_angle), s, r, rho_min)
    whole = _exit_radial_integral(angular(np.pi), s, r, 1.0)
    return part / whole


def exit_side_prob_1d(s, r):
    """P(Y > 0) for the exit point Y of the 2s-stable process from (-1, 1)
    started at r: the exit density, proportional to ((1 - r^2) / (y^2 -
    1))^s |y - r|^{-1}, integrated over y > 1 and over |y| > 1 by adaptive
    quadrature, so no normalising constant enters."""
    near = _exit_radial_integral(lambda y: 1.0 / (y - r), s, abs(r), 1.0)
    far = _exit_radial_integral(lambda y: 1.0 / (y + r), s, abs(r), 1.0)
    return near / (near + far)


def capped_ball_poisson(x, s, P, cap, radius=1.0):
    """u(x) on the ball of the given radius centred at 0, with the datum
    g(y) = min(|y - p|, cap), p = (P, 0), P > 0, by the explicit Poisson
    kernel u(x) = c_s (R^2 - |x|^2)^s int g(y) (|y|^2 - R^2)^{-s}
    |x - y|^{-2} dy over |y| > R, c_s = sin(pi s) / pi^2 (Blumenthal,
    Getoor and Ray, Trans. AMS 99, 1961), in polar coordinates about 0, the
    angle and the radius both by adaptive quadrature.  A ball of radius R is
    the unit ball scaled: u(x) = R u1(x / R) with p / R and cap / R.
    Returns (value, error estimate), the estimate of the angular
    quadrature, whose radial integrals are each taken to 1e-11 relative or
    1e-12 absolute."""
    opts = dict(limit=400, epsabs=1e-12, epsrel=1e-11)
    x1, x2 = np.asarray(x, dtype=float) / radius
    P, cap = P / radius, cap / radius
    rx = np.hypot(x1, x2)
    d = 1.0 - rx
    phi_x = np.arctan2(x2, x1) if rx > 0 else 0.0
    e = 1.0 / (1.0 - s)
    top = max(8.0, 2.0 * (P + cap))

    def radial(phi):
        c, sn = np.cos(phi), np.sin(phi)

        def dens(rho):
            y1, y2 = rho * c, rho * sn
            return min(np.hypot(y1 - P, y2), cap) * rho \
                / ((x1 - y1) ** 2 + (x2 - y2) ** 2)

        # the kink |y - p| = cap and the closest approach to p on this ray
        b = P * c
        disc = b * b - P * P + cap * cap
        kinks = [b + sg * np.sqrt(disc) for sg in (-1.0, 1.0)] \
            if disc > 0 else []
        kinks = [r for r in kinks + [b] if r > 1.0]

        # rho = 1 + u^{1/(1-s)} absorbs (rho - 1)^{-s} on [1, 2]
        def near(u):
            rho = 1.0 + u ** e
            return dens(rho) * (rho + 1.0) ** (-s) * e

        pts_u = [(c0 * d) ** (1.0 - s) for c0 in (0.3, 1.0, 3.0, 10.0)
                 if c0 * d < 1.0]
        pts_u += [(r - 1.0) ** (1.0 - s) for r in kinks if r < 2.0]
        v1, _ = quad(near, 0.0, 1.0, points=sorted(pts_u), **opts)

        def far(rho):
            return dens(rho) * (rho * rho - 1.0) ** (-s)

        pts = [r for r in kinks if 2.0 < r < top]
        v2, _ = quad(far, 2.0, top, points=sorted(pts) or None, **opts)
        v3, _ = quad(far, top, np.inf, **opts)
        return v1 + v2 + v3

    pts = [phi_x + t for w in (1.0, 10.0, 100.0) for t in (-w * d, w * d)
           if w * d < 1.0]
    pts += [phi_x]
    pts += [a for a in (0.0, 2.0 * np.pi, -2.0 * np.pi)
            if phi_x - np.pi < a < phi_x + np.pi]
    val, err = quad(radial, phi_x - np.pi, phi_x + np.pi,
                    points=sorted(set(pts)), **opts)
    scale = np.sin(np.pi * s) / np.pi ** 2 * (1.0 - rx * rx) ** s * radius
    return scale * val, scale * err
