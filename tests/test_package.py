import importlib
import sys

import pytest

import kerrlab

# the package's public names, by the module that defines each
PUBLIC_NAMES = {
    "errors": ["CalibrationError", "DomainError", "GuardBandError", "KerrlabError",
               "StabilityError"],
    "tensors": ["MetricData", "TensorValue"],
    "kerr": ["BLPoint", "KerrParams", "conformal_ky_residual", "kerr_metric",
             "killing_tensor_residual", "killing_tensor_residual_fd", "killing_yano_residual",
             "killing_yano_residual_fd", "random_exterior_points",
             "tetrad_reconstruction_residual", "xi_oneform"],
    "geodesics": ["ConservedSet", "GeodesicState", "Trajectory", "conserved_drift",
                  "conserved_quantities", "integrate_geodesic", "normalize_velocity",
                  "photon_orbit_radius"],
    "slices": ["SliceData", "constraint_residual", "round_sphere_slice", "schwarzschild_slice"],
    "waves": ["EnergyReport", "ModeField2p1", "WaveGrid", "evolve", "initial_data"],
    "maxwell": ["CurrentReport", "V_tensor", "dominant_energy_value",
                "maxwell_divergence_residual"],
    "hyperbolic1d": ["DiracData1p1", "GoursatField", "Grid1p1", "apply_wave_operator",
                     "cauchy_solve", "cone_containment", "dirac_solve_by_squaring",
                     "dirac_solve_direct", "formal_dual_residual", "goursat_solve",
                     "green_clause_residuals", "sample", "support_radius"],
    "index2d": ["ConnectionProfile", "IndexReport", "charge_report", "chern_integral",
                "eta_h_circle", "index_rhs_components", "mode_kernel_count", "ramp_profile"],
}
ALL_NAMES = [name for names in PUBLIC_NAMES.values() for name in names]


def test_the_package_exports_its_sixty_names():
    assert len(ALL_NAMES) == len(set(ALL_NAMES)) == 60
    assert sorted(kerrlab.__all__) == sorted(ALL_NAMES)
    assert set(ALL_NAMES) <= set(dir(kerrlab))
    assert set(PUBLIC_NAMES) <= set(dir(kerrlab))
    namespace = {}
    exec("from kerrlab import *", namespace)
    assert set(ALL_NAMES) <= set(namespace)


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_each_public_name_resolves_from_its_module(module):
    mod = importlib.import_module(f"kerrlab.{module}")
    assert sys.modules[f"kerrlab.{module}"] is mod is getattr(kerrlab, module)
    for name in PUBLIC_NAMES[module]:
        assert getattr(kerrlab, name) is getattr(mod, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kerrlab.no_such_name
