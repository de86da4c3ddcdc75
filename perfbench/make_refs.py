"""Regenerate ``refs.json``, the hard-coded references of the benchmark checks.

    python3 perfbench/make_refs.py

Run from the root of a checkout; it takes about a minute on one core.  Every
reference is stored with the error estimate it was computed with.  The ball
Poisson references are cross-checked against independent scipy quadratures
that share no code with the package:

* the centre value, through the exit-law oracle of ``tests/oracles.py``:
  u(0) = E[m(R)] with m the angular mean of the datum on the circle of
  radius R and R the exit radius;
* every other point, through the explicit Poisson kernel of the ball with
  its closed-form constant sin(pi s) / pi^2.

The oracle values, which are orders of magnitude more accurate, are the
ball references; the package's ``ball_poisson`` value and error estimate are
stored beside them, and every point where they disagree by more than three
times the two error estimates is printed and marked ``"covered": false``.
"""

import json
import math
import sys

import numpy as np
from scipy.integrate import quad

import workloads as W

W.use_checkout_src()
sys.path.insert(0, str(W.ROOT / "tests"))
import oracles  # noqa: E402
from fraclab import barriers, extension, geometry, kernels, nonlocal_op, wos  # noqa: E402

QUAD = dict(limit=400, epsabs=1e-12, epsrel=1e-11)


def g_cap(y1, y2):
    return min(math.hypot(y1 - W.CAP_P, y2), W.CAP)


def kink_radius(phi):
    """Radius where the ray at angle phi crosses |y - p| = cap."""
    b = W.CAP_P * math.cos(phi)
    return b + math.sqrt(b * b - W.CAP_P ** 2 + W.CAP ** 2)


def poisson_kernel_oracle(x, s):
    """u(x) = c_s (1 - |x|^2)^s int g(y) (|y|^2 - 1)^{-s} |x - y|^{-2} dy
    over |y| > 1, c_s = sin(pi s) / pi^2, in polar coordinates."""
    x1, x2 = x
    rx = math.hypot(x1, x2)
    d = 1.0 - rx
    phi_x = math.atan2(x2, x1) if rx > 0 else 0.0
    e = 1.0 / (1.0 - s)

    def radial(phi):
        c, sn = math.cos(phi), math.sin(phi)

        def dens(rho):
            y1, y2 = rho * c, rho * sn
            return g_cap(y1, y2) * rho / ((x1 - y1) ** 2 + (x2 - y2) ** 2)

        # rho = 1 + u^{1/(1-s)} absorbs (rho - 1)^{-s} on [1, 2]
        def near(u):
            rho = 1.0 + u ** e
            return dens(rho) * (rho + 1.0) ** (-s) * e

        rk = kink_radius(phi)
        pts_u = [(c0 * d) ** (1.0 - s) for c0 in (0.3, 1.0, 3.0, 10.0)
                 if c0 * d < 1.0]
        if rk < 2.0:
            pts_u.append((rk - 1.0) ** (1.0 - s))
        v1, e1 = quad(near, 0.0, 1.0, points=sorted(pts_u), **QUAD)

        def far(rho):
            return dens(rho) * (rho * rho - 1.0) ** (-s)

        pts = [r for r in (rk, W.CAP_P) if 2.0 < r < 8.0]
        v2, e2 = quad(far, 2.0, 8.0, points=pts or None, **QUAD)
        v3, e3 = quad(far, 8.0, math.inf, **QUAD)
        return v1 + v2 + v3

    pts = [phi_x + t for w in (1.0, 10.0, 100.0) for t in (-w * d, w * d)
           if w * d < 1.0]
    pts += [phi_x]
    pts += [a for a in (0.0, 2.0 * math.pi, -2.0 * math.pi)
            if phi_x - math.pi < a < phi_x + math.pi]
    val, err = quad(radial, phi_x - math.pi, phi_x + math.pi,
                    points=sorted(set(pts)), **QUAD)
    cs = math.sin(math.pi * s) / math.pi ** 2
    scale = cs * (1.0 - rx * rx) ** s
    return scale * val, scale * err


def centre_exit_law_oracle(s):
    """u(0) = int_1^5 m(r) f(r) dr + cap * P(R > 5): m is the angular mean of
    the datum, f the exit-radius density normalised with the oracle's beta
    integral, and m == cap beyond r = 5."""
    z = 0.5 * oracles._beta_piece(s, 1.0)   # int_1^inf (r^2-1)^{-s} / r dr
    e = 1.0 / (1.0 - s)

    def m(r):
        cphi = (r * r + W.CAP_P ** 2 - W.CAP ** 2) / (2.0 * r * W.CAP_P)
        pts = [math.acos(cphi)] if -1.0 < cphi < 1.0 else None
        v, _ = quad(lambda p: g_cap(r * math.cos(p), r * math.sin(p)),
                    0.0, math.pi, points=pts, **QUAD)
        return v / math.pi

    def near(u):
        r = 1.0 + u ** e
        return m(r) * (r + 1.0) ** (-s) / r * e / z

    def far(r):
        return m(r) * (r * r - 1.0) ** (-s) / r / z

    v1, e1 = quad(near, 0.0, 1.0, **QUAD)
    v2, e2 = quad(far, 2.0, 5.0, **QUAD)
    tail = W.CAP * oracles.exit_law_tail_prob(s, 5.0)
    return v1 + v2 + tail, e1 + e2


def main():
    s = W.S
    ball = geometry.Ball([0.0, 0.0], 1.0)
    g = barriers.capped_distance_data([W.CAP_P, 0.0], W.CAP)
    refs = {"about": (
        "Hard-coded references of the perfbench checks, written by "
        "perfbench/make_refs.py at rotation 0 (the workloads rotate or "
        "reflect the problem by exact symmetries).  'err' is the error "
        "estimate each value was computed with.  Ball values come from "
        "independent scipy oracles; 'covered' says whether ball_poisson's "
        "error estimate covers its distance to the oracle."), "s": s}

    ball_refs = []
    for depth in W.BALL_DEPTHS:
        for k in ([0] if depth == 1.0 else range(len(W.PSI))):
            x = (1.0 - depth) * W.unit(W.PSI[k])
            v, e = wos.ball_poisson(ball, g, x, s)
            if depth == 1.0:
                ov, oe = centre_exit_law_oracle(s)
                kind = "exit_law(tests/oracles.py)"
            else:
                ov, oe = poisson_kernel_oracle(x, s)
                kind = "poisson_kernel(scipy.quad)"
            dev = abs(v - ov)
            ok = dev <= 3.0 * (e + oe)
            print(f"ball d={depth:g} psi={k}: ball_poisson {v:.12g} +- {e:.2e}"
                  f"  oracle {ov:.12g} +- {oe:.1e}  dev {dev:.2e}"
                  f"{'' if ok else '  NOT COVERED'}", flush=True)
            ball_refs.append({"depth": depth, "psi_index": k, "x": x.tolist(),
                              "value": ov, "err": oe, "oracle": kind,
                              "ball_poisson": v, "ball_poisson_err": e,
                              "covered": bool(ok)})
    refs["ball"] = ball_refs

    g_ce = barriers.counterexample_min_rs_1(s)
    ce = []
    for t in np.geomspace(W.CE_TMIN, W.CE_TMAX, W.CE_N):
        v, e = wos.halfplane_poisson(g_ce, [0.0, float(t)], s)
        ce.append({"t": float(t), "value": v, "err": e})
    refs["counterexample"] = ce
    print("counterexample done", flush=True)

    g_ext = barriers.holder_point_singularity(W.EXT_ALPHA, [1.0, 0.0])
    disk = extension.DiskExtension(ball, g_ext)
    hess = []
    for d in W.HESS_DEPTHS:
        x = np.array([1.0 - d, 0.0])
        h8 = float(np.linalg.norm(extension.hessian_fd(disk, x, d / 8.0), 2))
        h16 = float(np.linalg.norm(extension.hessian_fd(disk, x, d / 16.0), 2))
        # the step-halving difference estimates the finite-difference error
        hess.append({"d": d, "value": h8, "err": abs(h8 - h16)})
        print(f"hessian d={d:.3g}: {h8:.10g} +- {abs(h8 - h16):.2e}", flush=True)
    refs["hessian"] = hess

    q = nonlocal_op.QuadratureSpec(target_rel_tol=2e-3, angular_nodes=34,
                                   max_angular_panels=24, max_radial_panels=160,
                                   n_jacobi=16)
    ov = nonlocal_op.apply_L(kernels.make_fractional_laplacian(s, 2),
                             extension.extended_field(ball, g_ext),
                             np.array([1.0 - W.EXT_D, 0.0]), q=q)
    refs["extension_apply_L"] = {"d": W.EXT_D, "value": float(ov.value),
                                 "err": float(ov.err_estimate),
                                 "n_evals": int(ov.n_evals)}
    print(f"apply_L(extended field): {ov.value:.12g} +- {ov.err_estimate:.2e}")

    with open(W.HERE / "refs.json", "w") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
