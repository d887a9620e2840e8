"""kerrlab: Kerr hidden symmetries, geodesics, scalar and Maxwell test
fields with their conserved currents, a 1+1 hyperbolic solution theory, and
the index theorem for the hyperbolic Dirac operator on the 2D cylinder.

kerrlab depends on numpy alone.  A run loads only the modules it uses: each
of the nine modules of _PUBLIC is registered in sys.modules, and bound here,
through importlib.util.LazyLoader, so that its code compiles and runs at the
first access to one of its attributes (an import of the module by another
module included).  A profiler can therefore read
sys.modules["kerrlab.<module>"] right after `import kerrlab`, and `vars()` of
that entry loads the module.  Each public name resolves from its module on
first access (PEP 562) and is then cached in the package."""

import importlib.util
import sys

__version__ = "0.1.0"

# module -> its public names, all re-exported by the package
_PUBLIC = {
    "errors": ("CalibrationError", "DomainError", "GuardBandError", "KerrlabError",
               "StabilityError"),
    "tensors": ("MetricData", "TensorValue"),
    "kerr": ("BLPoint", "KerrParams", "conformal_ky_residual", "kerr_metric",
             "killing_tensor_residual", "killing_tensor_residual_fd", "killing_yano_residual",
             "killing_yano_residual_fd", "random_exterior_points",
             "tetrad_reconstruction_residual", "xi_oneform"),
    "geodesics": ("ConservedSet", "GeodesicState", "Trajectory", "conserved_drift",
                  "conserved_quantities", "integrate_geodesic", "normalize_velocity",
                  "photon_orbit_radius"),
    "slices": ("SliceData", "constraint_residual", "round_sphere_slice", "schwarzschild_slice"),
    "waves": ("EnergyReport", "ModeField2p1", "WaveGrid", "evolve", "initial_data"),
    "maxwell": ("CurrentReport", "V_tensor", "dominant_energy_value",
                "maxwell_divergence_residual"),
    "hyperbolic1d": ("DiracData1p1", "GoursatField", "Grid1p1", "apply_wave_operator",
                     "cauchy_solve", "cone_containment", "dirac_solve_by_squaring",
                     "dirac_solve_direct", "formal_dual_residual", "goursat_solve",
                     "green_clause_residuals", "sample", "support_radius"),
    "index2d": ("ConnectionProfile", "IndexReport", "charge_report", "chern_integral",
                "eta_h_circle", "index_rhs_components", "mode_kernel_count", "ramp_profile"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)

for _name in _PUBLIC:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
