"""fraclab: a desk-scale numerical laboratory for nonlocal Dirichlet problems
with Hoelder exterior data."""

from .kernels import (KernelSpec, make_fractional_laplacian, kernel_eval,
                      validate_kernel, kernel_from_config, kernel_to_config)
from .geometry import (Ball, Cone, Domain, HalfPlane, Polygon, StarShaped,
                       RegularizedDistance, regularized_distance,
                       domain_from_config, domain_to_config, unit_square)
from .nonlocal_op import (OperatorValue, QuadratureSpec, apply_L, apply_L_1d,
                          apply_L_many, homogeneity_check)
from .fields import (ConeBarrier, HalfSpacePower, PowerPlus1D, PsiPower)
from .barriers import (ExteriorData, eval_barrier, data_from_config,
                       holder_point_singularity, counterexample_min_rs_1,
                       verify_halfspace_supersolution, verify_psi_barrier,
                       verify_cone_barrier, bracket_cone_beta0)
from .extension import (harmonic_extension, extended_field,
                        check_extension_bounds, ExtensionConfig)
from .wos import (WoSConfig, SolutionSample, sample_ball_exit, solve,
                  ball_poisson, halfplane_poisson)
from .regularity import (BoundaryProfile, HolderFit, boundary_profile,
                         fit_holder, holder_seminorm, exponent_experiment)

__version__ = "0.1.0"
