"""Independent oracles for test expectations.

Everything here goes through scipy's adaptive Gauss-Kronrod quadrature with
explicit breakpoints and substitutions, sharing no code with the package's
panel machinery.
"""

import numpy as np
from scipy.integrate import quad


def op_1d_power_plus(alpha, s, x, shift=0.0):
    """-(-Delta)^s of ((t + shift)_+)^alpha at x > -shift, by adaptive
    quadrature: 2 * int_0^inf (u(x) - (u(x+r)+u(x-r))/2) r^{-1-2s} dr.
    Orders s <= 1/2 only: above, the quadrature misses without saying so
    (at s = alpha = 0.8, where the value is 0, it returned -4.3e-4 +-
    4.1e-6 at x = 1 and 8.4e10 at x = 0.1), so it raises a ValueError."""
    if s > 0.5:
        raise ValueError(
            f"op_1d_power_plus covers orders s <= 0.5, not s = {s}")

    def u(t):
        t = t + shift
        return t ** alpha if t > 0 else 0.0

    ux = u(x)

    def integrand(r):
        return (ux - 0.5 * (u(x + r) + u(x - r))) * r ** (-1.0 - 2.0 * s)

    # near field: the r^{1-2s} behaviour is integrated in the variable
    # w = r^{2-2s}, which makes the integrand bounded near 0
    p = 2.0 - 2.0 * s
    rho = 0.5 * abs(x + shift)

    def near(w):
        r = w ** (1.0 / p)
        return integrand(r) * r / (p * w)

    v_near, e_near = quad(near, 0.0, rho ** p, limit=200,
                          epsabs=1e-13, epsrel=1e-12)
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
