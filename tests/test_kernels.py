import numpy as np
import pytest

from fraclab.errors import ParameterError
from fraclab.kernels import (KernelSpec, kernel_from_config, kernel_to_config,
                             make_fractional_laplacian, validate_kernel)


def test_fractional_laplacian_construction():
    K = make_fractional_laplacian(0.5, 1)
    assert K.lam == K.Lam == 1.0
    assert K.dim == 1

    K2 = make_fractional_laplacian(0.75, 2)
    assert K2.angular_density(np.array([[1.0, 0.0]])).tolist() == [1.0]


@pytest.mark.parametrize("s,dim", [(1.2, 2), (0.0, 2), (-0.1, 1), (0.5, 0)])
def test_invalid_parameters(s, dim):
    with pytest.raises(ParameterError):
        make_fractional_laplacian(s, dim)


def test_validate_kernel_clean():
    K = make_fractional_laplacian(0.5, 2)
    rep = validate_kernel(K, samples=1000)
    assert rep.ok
    assert rep.max_symmetry_violation == 0.0


def test_validate_kernel_lower_bound_violated():
    # sign-changing density: even, but dips below lam on half the sphere
    bad = KernelSpec(s=0.5, dim=2, lam=0.5, Lam=1.0,
                     angular_density=lambda th: th[..., 0])
    rep = validate_kernel(bad, samples=500)
    assert rep.symmetry_ok is False or rep.max_symmetry_violation > 0
    # theta_1 is odd, so the symmetry check must fire as well as the bound
    assert not rep.bounds_ok


def test_validate_kernel_asymmetric():
    bad = KernelSpec(s=0.5, dim=2, lam=0.5, Lam=2.5,
                     angular_density=lambda th: 1.0 + th[..., 0])
    rep = validate_kernel(bad, samples=500)
    assert not rep.symmetry_ok
    assert rep.max_symmetry_violation > 0.5


def test_config_round_trip():
    cfg = {"type": "frac_lap", "s": 0.5, "dim": 2}
    K = kernel_from_config(cfg)
    assert kernel_to_config(K) == cfg

    custom = {"type": "custom", "s": 0.4, "dim": 2, "lambda": 0.5,
              "Lambda": 1.5, "angular": {"cos_even": [1.0, 0.25]}}
    K2 = kernel_from_config(custom)
    assert validate_kernel(K2, samples=400).symmetry_ok
    assert kernel_to_config(K2) == custom
    assert kernel_to_config(kernel_from_config(kernel_to_config(K2))) == custom


def test_a_callable_density_has_no_record():
    # it was written without its angular key, a record that could not be
    # read back
    K = KernelSpec(s=0.5, dim=2, lam=1.0, Lam=1.5,
                   angular_density=lambda th: 1.0 + 0.25 * th[..., 0] ** 2)
    with pytest.raises(ParameterError, match="callable"):
        kernel_to_config(K)


CUSTOM = {"type": "custom", "s": 0.4, "lambda": 0.5, "Lambda": 1.5,
          "angular": {"cos_even": [1.0, 0.25]}}


@pytest.mark.parametrize("record, name", [
    # a misspelt key, a missing one, and a dim that is not an integer were
    # accepted, a bare KeyError, and cut to 2
    ({"type": "frac_lap", "s": 0.5, "dimm": 3},
     "unknown frac_lap key(s) ['dimm']"),
    ({"type": "frac_lap"}, "frac_lap record lacks required key(s) ['s']"),
    ({"type": "frac_lap", "s": 0.5, "dim": 2.5},
     "kernel dim must be an integer, got 2.5"),
    ({**CUSTOM, "dim": 2.5}, "dim 2 only, got dim 2.5"),
    ({**CUSTOM, "dim": 3}, "dim 2 only, got dim 3"),
    ({k: v for k, v in CUSTOM.items() if k != "lambda"},
     "custom record lacks required key(s) ['lambda']"),
    ({k: v for k, v in CUSTOM.items() if k != "angular"},
     "custom record lacks required key(s) ['angular']"),
    ({**CUSTOM, "angular": {"cos_even": [1.0], "cos_odd": [0.1]}}, "cos_odd"),
    ({"type": "stable", "s": 0.5}, "unknown kernel type 'stable'"),
])
def test_a_bad_kernel_record_is_refused_by_its_key(record, name):
    with pytest.raises(ParameterError) as info:
        kernel_from_config(record)
    assert name in str(info.value)


def test_kernel_record_defaults_and_integral_dims():
    assert kernel_to_config(kernel_from_config({"s": 0.5})) == {
        "type": "frac_lap", "s": 0.5, "dim": 2}
    assert kernel_from_config({"s": 0.5, "dim": 1.0}).dim == 1
    assert kernel_from_config({**CUSTOM, "dim": 2.0}).dim == 2
