"""kerrlab: Kerr hidden symmetries, geodesics, scalar and Maxwell test
fields with their conserved currents, a 1+1 hyperbolic solution theory, and
the index theorem for the hyperbolic Dirac operator on the 2D cylinder.

kerrlab depends on numpy alone. The modules stay eager (no PEP 562
namespace): perfbench's tracer reads sys.modules["kerrlab.<module>"] right
after `import kerrlab`."""

__version__ = "0.1.0"

from .errors import (CalibrationError, DomainError, GuardBandError,
                     KerrlabError, StabilityError)
from .tensors import MetricData, TensorValue
from .kerr import (BLPoint, KerrParams, carter_tensor, conformal_ky_residual,
                   coulomb_F_unit, kappa_scalars, kerr_metric,
                   killing_tensor_residual, killing_tensor_residual_fd,
                   killing_yano_residual, killing_yano_residual_fd,
                   principal_tetrad, random_exterior_points,
                   tetrad_reconstruction_residual, uniform_F_unit, xi_oneform)
from .geodesics import (ConservedSet, GeodesicState, Trajectory,
                        circular_orbit_state, conserved_drift,
                        conserved_quantities, integrate_geodesic,
                        normalize_velocity, photon_orbit_radius)
from .slices import (SliceData, constraint_residual, flat_slice,
                     round_sphere_slice, scalar_curvature,
                     schwarzschild_slice)
from .waves import (EnergyReport, ModeField2p1, WaveGrid, carter_Q, evolve,
                    initial_data, radius_from_tortoise, reduced_wave_apply,
                    symmetry_apply, tortoise_from_radius)
from .maxwell import (CurrentReport, MaxwellSample, V_tensor, coulomb_field,
                      dominant_energy_value, maxwell_divergence_residual,
                      np_scalars, uniform_field)
from .hyperbolic1d import (DiracData1p1, GoursatField, Grid1p1, apply_dirac,
                           apply_wave_operator, cauchy_solve,
                           causal_propagator, cone_containment,
                           dirac_solve_by_squaring, dirac_solve_direct,
                           formal_dual_residual, goursat_solve, green,
                           green_clause_residuals, sample, support_radius)
from .index2d import (ConnectionProfile, IndexReport, charge_report,
                      chern_integral, eta_abel_oracle, eta_h_circle,
                      index_rhs_components, mode_kernel_count, ramp_profile,
                      reversed_profile)
