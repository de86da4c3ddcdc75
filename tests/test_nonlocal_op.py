import inspect
import warnings

import numpy as np
import pytest

from fraclab._quad import mid_panels
from fraclab.barriers import cone_boundary_points, holder_point_singularity
from fraclab import nonlocal_op
from fraclab.errors import (DivergenceError, DomainError, ParameterError,
                            ToleranceWarning)
from fraclab.extension import DiskExtension, extended_field
from fraclab.fields import (CompositeField, ConeBarrier, HalfSpacePower,
                            PowerPlus1D, PsiPower, TranslatedField)
from fraclab.geometry import Ball, StarShaped
from fraclab.kernels import KernelSpec, make_fractional_laplacian
from fraclab.nonlocal_op import (QuadratureSpec, apply_L, apply_L_1d,
                                 apply_L_many, homogeneity_check)

from fixture_fields import (AffineField, CallableField, ConstantField,
                            LinearCombinationField)
from oracles import halfcircle_reduction_constant, op_1d_power_plus

# frozen from the independent adaptive-quadrature oracle (and equal to pi/4
# to its accuracy); see oracles.op_1d_power_plus
V_STAR_A025_S05_X1 = 0.7853981633974079


def test_constant_field_gives_zero():
    for K in (make_fractional_laplacian(0.5, 1),
              make_fractional_laplacian(0.3, 2)):
        x = np.zeros(K.dim) + 0.7
        ov = apply_L(K, ConstantField(1.0), x)
        assert abs(ov.value) <= 1e-10
        assert ov.value == ov.near_part + ov.far_part


def test_affine_field_gives_zero():
    K = make_fractional_laplacian(0.5, 2)
    ov = apply_L(K, AffineField([1.0, 0.0]), np.array([0.0, 0.0]))
    assert abs(ov.value) <= 1e-8


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 2.0])
def test_s_harmonic_power(s, t):
    ov = apply_L_1d(s, PowerPlus1D(alpha=s), t)
    assert abs(ov.value) <= 5e-6


def test_shifted_s_harmonic():
    # ((t+1)_+)^s is harmonic on t > -1
    ov = apply_L_1d(0.5, PowerPlus1D(alpha=0.5, shift=1.0), 0.0)
    assert abs(ov.value) <= 5e-6
    ov2 = apply_L_1d(0.3, PowerPlus1D(alpha=0.3), 0.5)
    assert abs(ov2.value) <= 5e-6


def test_supersolution_value_against_oracle():
    ov = apply_L_1d(0.5, PowerPlus1D(alpha=0.25), 1.0)
    assert ov.value == pytest.approx(V_STAR_A025_S05_X1, abs=5e-6)
    # live oracle cross-check
    v_or, e_or = op_1d_power_plus(0.25, 0.5, 1.0)
    assert ov.value == pytest.approx(v_or, abs=5e-6 + 10 * e_or)
    assert ov.value > 0
    # homogeneity forces the ratio at x = 2
    ov2 = apply_L_1d(0.5, PowerPlus1D(alpha=0.25), 2.0)
    assert ov2.value / ov.value == pytest.approx(2.0 ** (0.25 - 1.0), rel=1e-3)


def test_power_oracle_covers_orders_above_one_half():
    # (t_+)^s is s-harmonic on t > 0, and (t_+)^(1/4) has value pi/4 at
    # s = 1/2, t = 1
    for s in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for x in (1.0, 0.1):
            v, e = op_1d_power_plus(s, s, x)
            assert abs(v) <= 1e-13 and e <= 1e-12
    assert op_1d_power_plus(0.25, 0.5, 1.0)[0] == pytest.approx(
        np.pi / 4.0, rel=1e-14)
    # the operator's own estimate covers its distance to the oracle
    for s, alpha in ((0.7, 0.3), (0.8, 0.5)):
        v, e = op_1d_power_plus(alpha, s, 1.0)
        ov = apply_L_1d(s, PowerPlus1D(alpha=alpha), 1.0)
        assert abs(ov.value - v) <= ov.err_estimate + e


def test_subharmonic_power_is_negative():
    # alpha in (s, 2s): the power is a subsolution, the operator flips sign
    ov = apply_L_1d(0.5, PowerPlus1D(alpha=0.75), 1.0)
    assert ov.value < 0
    v_or, _ = op_1d_power_plus(0.75, 0.5, 1.0)
    assert ov.value == pytest.approx(v_or, rel=1e-5)


def test_divergence_guard():
    with pytest.raises(DivergenceError):
        apply_L_1d(0.3, PowerPlus1D(alpha=0.6), 1.0)
    with pytest.raises(DivergenceError):
        apply_L_1d(0.3, PowerPlus1D(alpha=0.8), 1.0)


def test_2d_reduction_to_1d():
    """Planar operator on (x . nu)_+^a equals the angular constant
    (1/2) int a(theta)|theta . nu|^{2s} dtheta times the 1d value."""
    s, alpha = 0.5, 0.25
    K = make_fractional_laplacian(s, 2)
    u2 = HalfSpacePower([0.0, 1.0], alpha)
    ov2 = apply_L(K, u2, np.array([0.3, 1.0]))
    ov1 = apply_L_1d(s, PowerPlus1D(alpha=alpha), 1.0)
    const = halfcircle_reduction_constant(s)
    assert ov2.value == pytest.approx(0.5 * const * ov1.value, rel=2e-5)


def test_2d_reduction_anisotropic():
    s, alpha = 0.4, 0.2
    dens = lambda th: 1.0 + 0.5 * th[..., 0] ** 2
    K = KernelSpec(s=s, dim=2, lam=1.0, Lam=1.5, angular_density=dens)
    u2 = HalfSpacePower([0.0, 1.0], alpha)
    ov2 = apply_L(K, u2, np.array([-0.2, 1.0]))
    ov1 = apply_L_1d(s, PowerPlus1D(alpha=alpha), 1.0)
    const = halfcircle_reduction_constant(s, density=dens,
                                          nu_angle=np.pi / 2)
    # the 1d value carries a(e1) = 1 for the isotropic kernel: strip the 2x
    assert ov2.value == pytest.approx(0.5 * const * ov1.value, rel=2e-4)


def test_linearity():
    K = make_fractional_laplacian(0.6, 2)
    rng = np.random.Generator(np.random.Philox(key=21))
    c1 = rng.standard_normal(2)
    c2 = rng.standard_normal(2)
    u = CallableField(lambda p: np.exp(-np.sum((p - c1) ** 2, axis=-1)))
    v = CallableField(lambda p: np.cos(p @ c2) / (1.0 + np.sum(p ** 2, axis=-1)))
    a, b = 1.7, -0.6
    x = np.array([0.1, -0.3])
    combo = LinearCombinationField([a, b], [u, v])
    q = QuadratureSpec(target_rel_tol=1e-4)
    lhs = apply_L(K, combo, x, q=q)
    r1 = apply_L(K, u, x, q=q)
    r2 = apply_L(K, v, x, q=q)
    tol = lhs.err_estimate + abs(a) * r1.err_estimate + abs(b) * r2.err_estimate
    assert lhs.value == pytest.approx(a * r1.value + b * r2.value,
                                      abs=max(tol * 3, 1e-10))


def test_translation_covariance():
    K = make_fractional_laplacian(0.5, 2)
    base = HalfSpacePower([0.0, 1.0], 0.25)
    h = np.array([0.4, -0.2])
    shifted = TranslatedField(base, h)
    x = np.array([0.1, 0.8])
    v0 = apply_L(K, base, x)
    v1 = apply_L(K, shifted, x + h)
    assert v1.value == pytest.approx(v0.value,
                                     abs=3 * (v0.err_estimate + v1.err_estimate))


def test_value_equals_near_plus_far():
    ov = apply_L_1d(0.5, PowerPlus1D(alpha=0.25), 1.5)
    assert ov.value == ov.near_part + ov.far_part
    assert ov.err_estimate >= 0


def test_error_estimate_is_honest():
    # on the s-harmonic case the exact value is 0, so |value| <= err + 5e-6
    for s in (0.3, 0.7):
        ov = apply_L_1d(s, PowerPlus1D(alpha=s), 1.0)
        assert abs(ov.value) <= ov.err_estimate + 5e-6


def test_tolerance_warning_when_starved():
    q = QuadratureSpec(target_rel_tol=1e-13, max_radial_panels=8, n_jacobi=6)
    with pytest.warns(ToleranceWarning):
        ov = apply_L_1d(0.5, PowerPlus1D(alpha=0.25), 1.0, q=q)
    assert not ov.tol_ok


def test_homogeneity_check_powers():
    K1 = make_fractional_laplacian(0.5, 1)
    rep = homogeneity_check(K1, PowerPlus1D(alpha=0.25), np.array([1.0]),
                            scales=(0.5, 2.0, 4.0))
    assert rep.max_rel_deviation < 1e-3
    assert rep.order_drop == pytest.approx(0.25 - 1.0)


def test_homogeneity_check_2d_anisotropic():
    dens = lambda th: 1.0 + 0.5 * th[..., 0] ** 2
    K = KernelSpec(s=0.5, dim=2, lam=1.0, Lam=1.5, angular_density=dens)
    nu = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rep = homogeneity_check(K, HalfSpacePower(nu, 0.3),
                            np.array([0.2, 0.9]), scales=(2.0,),
                            q=QuadratureSpec(target_rel_tol=1e-5))
    assert rep.max_rel_deviation < 1e-3


def test_homogeneity_check_zero_field():
    K = make_fractional_laplacian(0.5, 1)
    zero = ConstantField(0.0)
    rep = homogeneity_check(K, zero, np.array([1.0]), scales=(2.0, 3.0))
    assert rep.max_rel_deviation == 0.0
    assert all(v == 0.0 for v in rep.scaled_values)


def test_homogeneity_check_requires_declared_degree():
    K = make_fractional_laplacian(0.5, 2)
    u = CallableField(lambda p: np.exp(-np.sum(p ** 2, axis=-1)))
    with pytest.raises(ParameterError):
        homogeneity_check(K, u, np.array([1.0, 0.0]), scales=(2.0,))


def test_quadrature_spec_invariants():
    with pytest.raises(ParameterError):
        QuadratureSpec(target_rel_tol=0.0)


def test_value_invariant_under_near_far_split(monkeypatch):
    """The near/far split is bookkeeping: moving the near radius or the far
    cutoff must leave the total unchanged within the error estimates."""
    K = make_fractional_laplacian(0.5, 2)
    u = HalfSpacePower([0.0, 1.0], 0.25)
    x = np.array([0.2, 1.0])
    q = QuadratureSpec(target_rel_tol=1e-5)
    base = apply_L(K, u, x, q=q)
    for name, value in [("_NEAR_FRACTION", 0.2), ("_FAR_CUTOFF", 64.0),
                        ("_FAR_CUTOFF", 4.0)]:
        with monkeypatch.context() as m:
            m.setattr(nonlocal_op, name, value)
            ov = apply_L(K, u, x, q=q)
        tol = 3 * (base.err_estimate + ov.err_estimate) + 1e-12
        assert ov.value == pytest.approx(base.value, abs=tol)
        assert ov.near_part != pytest.approx(base.near_part, abs=1e-12) \
            or name == "_FAR_CUTOFF"  # the split itself did move


# Values and n_evals of the batched radial quadrature with G7/K15 mid panels
# (15 nodes per panel).  The extended datum's inside field is the closed-form
# disk extension of the point-singularity datum.
PINNED = {
    "power_1d": (0.7853981424963499, 417),
    "halfspace": (1.856958705531287, 11268),
    "psi_ball": (56.102878042558594, 16098),
    "psi_star": (21.02911418899201, 10578),
    "cone_beta005": (2.3482899868555096, 34890),
    "cone_beta05_coarse": (-0.3884911871191092, 21960),
    "translated": (1.8569587055313854, 11268),
    "extended_datum": (-61.90772686084167, 6822),
}

# the extended datum's value with the disk Poisson quadrature as its inside
# field, before the closed form replaced it
EXTENDED_DATUM_DISK_QUADRATURE = -61.90772686089802

# (value, err_estimate) of the same cases with GL16 mid panels and a
# separate GL8 error rule (24 nodes per panel), the rule G7/K15 replaced
GL16_GL8 = {
    "power_1d": (0.78539808796032, 3.2195021529594567e-07),
    "halfspace": (1.8569581032285243, 5.500001645107273e-06),
    "psi_ball": (56.10286386707946, 0.0004678899017936433),
    "psi_star": (21.02906429216258, 0.0006020680434767237),
    "cone_beta005": (2.348289015798185, 6.141002813775943e-06),
    "cone_beta05_coarse": (-0.3884938305007341, 3.299163731005748e-05),
    "translated": (1.8569581032286226, 5.500001624268959e-06),
    "extended_datum": (-61.90773339015156, 0.0001437106552334541),
}


def _pinned_case(name):
    K1 = make_fractional_laplacian(0.5, 1)
    K = make_fractional_laplacian(0.5, 2)
    q5 = QuadratureSpec(target_rel_tol=1e-5)
    q4 = QuadratureSpec(target_rel_tol=1e-4)
    cone_x = cone_boundary_points((0.0, 1.0), 1.0, 6)[2]
    ball = Ball([0.0, 0.0], 1.0)
    return {
        "power_1d": lambda: apply_L(K1, PowerPlus1D(0.25), [1.0]),
        "halfspace": lambda: apply_L(K, HalfSpacePower([0.0, 1.0], 0.25),
                                     [0.3, 0.8], q=q5),
        "psi_ball": lambda: apply_L(K, PsiPower(ball, 0.25), [0.0, 0.99],
                                    q=q5),
        "psi_star": lambda: apply_L(
            K, PsiPower(StarShaped([1.0, 0.0, 0.1]), 0.25), [1.05, 0.0], q=q4),
        "cone_beta005": lambda: apply_L(
            K, ConeBarrier([0.0, 1.0], 1.0, 0.05), cone_x, q=q5),
        "cone_beta05_coarse": lambda: apply_L(
            K, ConeBarrier([0.0, 1.0], 1.0, 0.5), cone_x,
            q=QuadratureSpec(target_rel_tol=1e-4, max_angular_panels=16)),
        "translated": lambda: apply_L(
            K, TranslatedField(HalfSpacePower([0.0, 1.0], 0.25), [0.2, -0.3]),
            [0.5, 0.5], q=q5),
        # criterion 10's extended datum and quadrature spec
        "extended_datum": lambda: apply_L(
            K, extended_field(ball, holder_point_singularity(0.3, [1.0, 0.0])),
            [0.99, 0.0], q=QuadratureSpec(
                target_rel_tol=2e-3, angular_nodes=34, max_angular_panels=24,
                max_radial_panels=160, n_jacobi=16)),
    }[name]()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_operator_values(name):
    value, n_evals = PINNED[name]
    ov = _pinned_case(name)
    assert ov.value == pytest.approx(value, rel=1e-13, abs=0.0)
    assert ov.n_evals == n_evals


@pytest.mark.parametrize("name", sorted(GL16_GL8))
def test_pinned_values_agree_with_gl16_rule(name):
    """Both mid-panel rules estimate the same integral: the values differ by
    no more than the two error estimates together."""
    old, err_old = GL16_GL8[name]
    ov = _pinned_case(name)
    assert ov.tol_ok
    assert abs(ov.value - old) <= ov.err_estimate + err_old


def test_extended_datum_agrees_with_its_disk_quadrature_value():
    ov = _pinned_case("extended_datum")
    assert abs(ov.value - EXTENDED_DATUM_DISK_QUADRATURE) <= ov.err_estimate


def test_extended_datum_operator_agrees_with_the_disk_quadrature_field():
    """Criterion 10's operator on the extended datum, with the closed form
    and with the Poisson quadrature as the inside field, agrees within the
    operator's error estimate, down to depth 1e-3 at the anchor."""
    K = make_fractional_laplacian(0.5, 2)
    ball = Ball([0.0, 0.0], 1.0)
    g = holder_point_singularity(0.3, [1.0, 0.0])
    q = QuadratureSpec(target_rel_tol=2e-3, angular_nodes=34,
                       max_angular_panels=24, max_radial_panels=160,
                       n_jacobi=16)
    exact = extended_field(ball, g)
    assert not isinstance(exact.inside, DiskExtension)
    quadrature = CompositeField(ball, DiskExtension(ball, g), g,
                                growth=g.payload_growth)
    pts = [[1.0 - d, 0.0] for d in (1e-1, 1e-2, 1e-3)] + [[0.5, 0.4]]
    for a, b in zip(apply_L_many(K, exact, pts, q=q),
                    apply_L_many(K, quadrature, pts, q=q)):
        assert a.tol_ok
        assert abs(a.value - b.value) <= a.err_estimate


def test_power_1d_error_covers_exact_value():
    # -(-Delta)^{1/2} (t_+)^{1/4} at t = 1 is pi/4 (V_STAR_A025_S05_X1)
    ov = _pinned_case("power_1d")
    assert abs(ov.value - np.pi / 4.0) <= ov.err_estimate


def test_refinements_count_bisections():
    # one direction: the nodes are 36 near + 36 tail + 15 (K15) per panel,
    # and each bisection of a mid panel adds two
    ov = apply_L_1d(0.5, PowerPlus1D(alpha=0.25), 1.0)
    n_init = len(mid_panels(0.5, np.array([16.0]), np.array([[1.0]]), 8)[0])
    assert ov.refinements > 0
    assert ov.n_evals == 72 + 15 * (n_init + 2 * ov.refinements)
    K = make_fractional_laplacian(0.5, 2)
    assert apply_L(K, ConstantField(1.0), [0.7, 0.7]).refinements == 0
    # a tighter tolerance refines more, radially and over the angles
    u = HalfSpacePower([0.0, 1.0], 0.25)
    coarse = apply_L(K, u, [0.3, 0.8], q=QuadratureSpec(target_rel_tol=1e-3))
    fine = apply_L(K, u, [0.3, 0.8], q=QuadratureSpec(target_rel_tol=1e-6))
    assert fine.refinements > coarse.refinements


# ---------------------------------------------------------------------------
# the batched entry point: apply_L_many


def _batch_case(name):
    """(kernel, field, points, spec) of a batch; each batch repeats a point
    and mixes near and far points, which refine differently."""
    K1 = make_fractional_laplacian(0.5, 1)
    K = make_fractional_laplacian(0.5, 2)
    q4 = QuadratureSpec(target_rel_tol=1e-4)
    q5 = QuadratureSpec(target_rel_tol=1e-5)
    ball = Ball([0.0, 0.0], 1.0)
    return {
        "power_1d": (K1, PowerPlus1D(0.25), [[1.0], [0.1], [3.0], [1.0]], None),
        "halfspace": (K, HalfSpacePower([0.0, 1.0], 0.25),
                      [[0.3, 0.8], [0.0, 0.05], [-1.0, 3.0], [0.3, 0.8]], q5),
        # the first point splits angular panels at the default tolerance,
        # the others do not
        "psi_ball": (K, PsiPower(ball, 0.25),
                     [[0.0, 0.99], [0.5, 0.0], [0.0, 0.99], [-0.2, -0.9]],
                     None),
        "psi_star": (K, PsiPower(StarShaped([1.0, 0.0, 0.1]), 0.25),
                     [[1.05, 0.0], [0.0, 0.5], [1.05, 0.0]], q4),
        "cone": (K, ConeBarrier([0.0, 1.0], 1.0, 0.05),
                 cone_boundary_points((0.0, 1.0), 1.0, 6)[:3]
                 + [[0.0, 1.5], cone_boundary_points((0.0, 1.0), 1.0, 6)[0]],
                 None),
        "translated": (K, TranslatedField(HalfSpacePower([0.0, 1.0], 0.25),
                                          [0.2, -0.3]),
                       [[0.5, 0.5], [0.5, -0.2], [0.5, 0.5]], q5),
        # criterion 10's extended datum, inside and outside the ball
        "extended_datum": (
            K, extended_field(ball, holder_point_singularity(0.3, [1.0, 0.0])),
            [[0.99, 0.0], [0.5, 0.3], [1.5, 0.0], [0.99, 0.0]],
            QuadratureSpec(target_rel_tol=2e-3, angular_nodes=34,
                           max_angular_panels=24, max_radial_panels=160,
                           n_jacobi=16)),
    }[name]


# the cone batch's point [0, 1.5] misses the default tolerance: its
# tol_ok=False must match as well
@pytest.mark.filterwarnings("ignore::fraclab.errors.ToleranceWarning")
@pytest.mark.parametrize("name", ["power_1d", "halfspace", "psi_ball",
                                  "psi_star", "cone", "translated",
                                  "extended_datum"])
def test_apply_L_many_matches_apply_L_bit_for_bit(name):
    K, u, pts, q = _batch_case(name)
    batch = apply_L_many(K, u, pts, q=q)
    alone = [apply_L(K, u, x, q=q) for x in pts]
    # every field, value and counts alike, equals the one-point call's
    assert batch == alone
    assert len({ov.n_evals for ov in batch}) > 1


@pytest.mark.filterwarnings("ignore::fraclab.errors.ToleranceWarning")
@pytest.mark.parametrize("name", ["psi_ball", "cone"])
def test_apply_L_many_takes_a_round_per_split_of_its_slowest_point(
        name, monkeypatch):
    K, u, pts, q = _batch_case(name)
    calls = []
    panels = nonlocal_op._angular_panels

    def counting(*args):
        calls.append(len(args[-2]))     # the panels evaluated together
        return panels(*args)

    monkeypatch.setattr(nonlocal_op, "_angular_panels", counting)
    single = []
    for x in pts:
        calls.clear()
        apply_L(K, u, x, q=q)
        single.append(len(calls) - 1)   # angular splits of this point
    calls.clear()
    apply_L_many(K, u, pts, q=q)
    assert len(set(single)) > 1
    # one initial call, then one per round, each with the two halves of
    # every point still splitting
    assert len(calls) == 1 + max(single)
    assert calls[1:] == [2 * sum(n > r for n in single)
                         for r in range(max(single))]


@pytest.mark.parametrize("dim", [1, 2])
def test_pair_avg_hands_u_the_plus_then_minus_points(dim, monkeypatch):
    # each pair_avg(r, k) call of a radial run evaluates u once, on
    # x[k] + r theta[k] followed by x[k] - r theta[k], bit for bit
    seen, runs = [], []
    u = CallableField(
        lambda p: seen.append(p.copy()) or 1.0 / (1.0 + np.sum(p * p, axis=-1)))
    radial, integrals = nonlocal_op._radial, nonlocal_op.radial_integrals

    def recording_radial(kernel, u, u_x, x, thetas, *rest):
        runs.append((np.broadcast_to(x, thetas.shape), thetas, []))
        return radial(kernel, u, u_x, x, thetas, *rest)

    def recording_integrals(pair_avg, *rest):
        def recorded(r, k):
            seen.clear()
            out = pair_avg(r, k)
            assert len(seen) == 1
            runs[-1][2].append((r, k, seen[0]))
            return out
        return integrals(recorded, *rest)

    monkeypatch.setattr(nonlocal_op, "_radial", recording_radial)
    monkeypatch.setattr(nonlocal_op, "radial_integrals", recording_integrals)
    pts = [[0.4], [-1.3]] if dim == 1 else [[0.3, -0.2], [1.1, 0.5]]
    apply_L_many(make_fractional_laplacian(0.4, dim), u, pts)
    assert runs and all(calls for *_, calls in runs)
    for x, thetas, calls in runs:
        for r, k, got in calls:
            step = r[:, None] * thetas[k]
            np.testing.assert_array_equal(
                got, np.concatenate([x[k] + step, x[k] - step]))


def test_homogeneity_check_uses_the_batch_bit_for_bit():
    K1 = make_fractional_laplacian(0.5, 1)
    u = PowerPlus1D(alpha=0.25)
    rep = homogeneity_check(K1, u, np.array([1.0]), scales=(0.5, 2.0))
    assert rep.base_value == apply_L(K1, u, [1.0]).value
    assert rep.scaled_values == tuple(apply_L(K1, u, [t]).value
                                      for t in (0.5, 2.0))


def test_apply_L_many_rejects_bad_points_before_any_quadrature():
    K = make_fractional_laplacian(0.5, 2)
    evaluated = []
    base = HalfSpacePower([0.0, 1.0], 0.25)
    u = CallableField(lambda p: evaluated.append(len(p)) or base(p),
                      growth=0.25, smooth_radius_fn=base.smooth_radius)
    with pytest.raises(ParameterError, match="points"):
        apply_L_many(K, u, [])
    with pytest.raises(ParameterError, match=r"points\[1\]"):
        apply_L_many(K, u, [[0.1, 0.5], [0.1, 0.5, 0.0]])
    with pytest.raises(ParameterError, match=r"points\[0\]"):
        apply_L(K, u, [0.1])
    # on the kink plane of the half-space power, the third point
    with pytest.raises(DomainError, match=r"points\[2\]"):
        apply_L_many(K, u, [[0.1, 0.5], [0.3, 0.2], [0.4, 0.0]])
    assert evaluated == []
    # 1-D points may be plain numbers
    K1 = make_fractional_laplacian(0.5, 1)
    assert apply_L_many(K1, PowerPlus1D(0.25), [1.0, 2.0]) == [
        apply_L(K1, PowerPlus1D(0.25), [t]) for t in (1.0, 2.0)]


def test_tolerance_warnings_once_per_missing_point_at_the_callers_line():
    K1 = make_fractional_laplacian(0.5, 1)
    u = PowerPlus1D(alpha=0.25)
    starved = QuadratureSpec(target_rel_tol=1e-13, max_radial_panels=8,
                             n_jacobi=6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        ovs = apply_L_many(K1, u, [[1.0], [2.0], [1.0]], q=starved)
        line_one = inspect.currentframe().f_lineno + 1
        one = apply_L(K1, u, [1.0], q=starved)
        apply_L_many(K1, u, [[1.0], [2.0]])     # meets its target: silent
    assert not any(ov.tol_ok for ov in ovs) and not one.tol_ok
    assert [w.category for w in caught] == [ToleranceWarning] * 4
    assert {w.filename for w in caught} == {__file__}
    assert [w.lineno for w in caught] == [line] * 3 + [line_one]
