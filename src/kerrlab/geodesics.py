"""Geodesic integration on Kerr with complete-integrability diagnostics.

The equations of motion are integrated directly in Christoffel form by
Gragg-Bulirsch-Stoer extrapolation, on one generated kernel of the position
and the 4-velocity, the acceleration a^c = -Gamma^c_ab u^a u^b (`accel`: no
Christoffel array is built).  Integrability is exercised by checking
constancy of the four integrals (norm, energy e, axial angular momentum
l_z, and the quadratic Carter invariant k) rather than by quadratures.
`conserved_series` is their one formula: the norm check of a state,
`conserved_quantities` and the drifts all read it.

Sign conventions: e = -g(u, d/dt) (positive for future-directed orbits at
infinity), l_z = +g(u, d/dphi).  The Carter invariant uses K_ab = Y_ac Y^c_b,
under which k = -l_z^2 for equatorial Schwarzschild orbits.

kerrlab._gbs is imported on first use.  integrate_geodesic calls the
module-level solve_ivp by name, so replacing it there observes every RHS
evaluation, the sampling included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StabilityError
from .kerr import BLPoint, KerrParams, _at, _check_point, _forms, _ky_calibration
from .tensors import UP, TensorValue

# Trajectories stop at r_plus + PLUNGE_GUARD * m.  Boyer-Lindquist components
# degenerate at the horizon: at r - r_plus = delta the 4-velocity components
# grow like 1/delta and quadratic invariants lose ~delta^-2 digits to
# cancellation, so the guard stays at a coordinate-healthy distance.
PLUNGE_GUARD = 1e-2

NORM_TOL = 1e-10  # largest |g(u, u) - target| a state may have
# Largest integrator tolerance.  Step control needs a tolerance well below 1:
# a loose one lets the integrator step where the right-hand side is not
# finite.
MAX_TOL = 1e-3
# Largest t_max, in units of m.  The work grows with the time an orbit spans
# (a bound orbit at r = 10 m takes about 2 s to reach t = 10^4 m), and at a
# span near 1e300 the first trial step is no longer a representable increment.
MAX_TIME = 1e5


def solve_ivp(*args, **kwargs):
    """kerrlab._gbs.solve_ivp, imported on the first call."""
    from ._gbs import solve_ivp

    return solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class GeodesicState:
    """Phase-space point: chart position plus contravariant 4-velocity."""

    x: BLPoint
    u: TensorValue
    causal_type: str  # "timelike" | "null"

    def __post_init__(self):
        if self.causal_type not in ("timelike", "null"):
            raise ValueError(f"unknown causal type {self.causal_type!r}")
        if self.u.variance != (UP,):
            raise ValueError("4-velocity must be a rank-1 up tensor")
        uc = self.u.real_part()
        if uc[0] <= 0:
            raise ValueError("4-velocity must be future-directed (u^t > 0)")
        norm = conserved_series(self.x.params, self.x.coords[None], uc[None])[0, 3]
        target = -1.0 if self.causal_type == "timelike" else 0.0
        if abs(norm - target) > NORM_TOL:
            raise ValueError(
                f"4-velocity norm {norm} does not match {self.causal_type} target {target}"
            )


@dataclass(frozen=True)
class ConservedSet:
    """The (e, l_z, k) integrals of Kerr geodesic motion."""

    e: float
    lz: float
    k: float

    def __post_init__(self):
        for v in (self.e, self.lz, self.k):
            if not math.isfinite(v):
                raise ValueError("non-finite conserved quantity")


def conserved_quantities(params: KerrParams, s: GeodesicState) -> ConservedSet:
    """e, l_z and k of the state s: its row of `conserved_series`, after
    checking that s is a point of params and that the Killing-Yano form
    calibrates (else CalibrationError)."""
    _check_point(params, s.x)
    _ky_calibration(params)
    e, lz, k, _norm = conserved_series(params, s.x.coords[None], s.u.real_part()[None])[0]
    return ConservedSet(e=float(e), lz=float(lz), k=float(k))


def _geodesic_rhs(params):
    accel = _forms()["accel"]
    m, a = params.m, params.a

    def rhs(tau, y):
        # one state (8,), as Python floats, or a batch (n, 8); du^c = -Gamma^c_ab u^a u^b
        _t, r, th, _phi, *u = y.tolist() if y.ndim == 1 else y.T
        return np.array([*u, *accel(m, a, r, th, *u)]).T

    return rhs


@dataclass(frozen=True)
class Trajectory:
    """Sampled geodesic: affine parameter, chart coordinates, velocities, and flags."""

    tau: np.ndarray
    x: np.ndarray  # shape (n, 4): t, r, theta, phi
    u: np.ndarray  # shape (n, 4)
    plunged: bool
    params: KerrParams


def integrate_geodesic(
    params: KerrParams,
    s0: GeodesicState,
    t_max: float,
    tol: float = 1e-10,
    n_samples: int = 200,
) -> Trajectory:
    """Integrate until coordinate time t_max.

    Plunging trajectories stop at r = r_plus + 1e-2 m and the partial
    trajectory is returned with plunged=True.  The n_samples (at least 2)
    evenly spaced samples are extrapolated steps from the nearest accepted
    step.
    """
    if not 0 < t_max <= MAX_TIME * params.m:
        raise DomainError(f"t_max must be positive and at most {MAX_TIME:g} m")
    if not 0 < tol <= MAX_TOL:
        raise DomainError(f"tol must be positive and at most {MAX_TOL}")
    if n_samples < 2:  # one sample is the initial state, whose drifts all read 0
        raise DomainError("n_samples must be at least 2")
    y0 = np.concatenate([s0.x.coords, s0.u.real_part()])
    r_stop = params.r_plus + PLUNGE_GUARD * params.m
    # events: t reaches t_max, r falls to r_stop.  u^t >= 1 outside the
    # ergoregion for the states of interest, so the affine span 10 t_max is
    # never reached: the coordinate-time event is what ends the run.
    sol = solve_ivp(_geodesic_rhs(params), (0.0, 10.0 * t_max), y0, tol,
                    events=((0, t_max, 1), (1, r_stop, -1)))
    if sol.message is not None:
        raise StabilityError(f"geodesic integration failed: {sol.message}")
    taus = np.linspace(0.0, sol.t[-1], n_samples)
    ys = sol.sol(taus)
    return Trajectory(tau=taus, x=ys[:, :4], u=ys[:, 4:], plunged=sol.event == 1, params=params)


def conserved_series(params: KerrParams, x, u) -> np.ndarray:
    """(e, l_z, k, norm) = (-g(u, d/dt), g(u, d/dphi), K_ab u^a u^b, g(u, u)) at
    every sample of chart positions x and velocities u (both shape (n, 4)), in
    one broadcasting pass over the closed forms.

    It validates nothing, so the integrator's O(tol) norm drift shows up in
    the values instead of aborting them.  A row's e, l_z and k keep their
    bits in a batch of any size; its norm may differ in the last bit.
    """
    g, K = _at(params, x[:, 1], x[:, 2], "g", "K")
    gu = np.einsum("nab,nb->na", g, u)
    return np.stack([-gu[:, 0], gu[:, 3],
                     np.einsum("na,nab,nb->n", u, K, u),
                     np.einsum("na,na->n", u, gu)], axis=1)


def _drift(series):
    """Max drift of each column from the first row, over max(|first row|, 1)."""
    return np.max(np.abs(series - series[0]) / np.maximum(np.abs(series[0]), 1.0), axis=0)


def conserved_drift(params: KerrParams, traj: Trajectory, causal_type: str):
    """Max relative drift of (e, l_z, k, norm) along a sampled trajectory."""
    return _drift(conserved_series(params, traj.x, traj.u))


def photon_orbit_radius(params: KerrParams, prograde=True) -> float:
    """Equatorial circular-photon-orbit radius, in closed form (Bardeen, Press
    & Teukolsky 1972): r_ph = 2m (1 + cos(2/3 arccos(-/+ a/m))), the upper sign
    for the prograde orbit (along +phi).

    It is the root of the radial geodesic equation on the tangential null
    direction, Gamma^r_tt + 2 Omega Gamma^r_tphi + Omega^2 Gamma^r_phiphi = 0,
    with Omega the null angular velocity of that sense.
    """
    spin = params.a / params.m
    return 2.0 * params.m * (1.0 + math.cos(2.0 / 3.0 * math.acos(-spin if prograde else spin)))


def normalize_velocity(params: KerrParams, p: BLPoint, u_spatial, causal_type="timelike"):
    """Complete (u^r, u^theta, u^phi) to a future-directed 4-velocity.

    Solves the quadratic normalization condition A (u^t)^2 + B u^t + C = 0
    for u^t > 0.  DomainError if the state's norm check fails: at large
    speeds the float64 rounding of g_ab u^a u^b exceeds NORM_TOL.
    """
    [g] = _at(params, p.r, p.theta, "g")
    ur, uth, uph = u_spatial
    A = g[0, 0]
    B = 2 * g[0, 3] * uph
    target = -1.0 if causal_type == "timelike" else 0.0
    C = g[1, 1] * ur**2 + g[2, 2] * uth**2 + g[3, 3] * uph**2 - target
    disc = B * B - 4 * A * C
    if disc < 0:
        raise DomainError("no real future-directed completion exists")
    if A == 0 and B == 0:
        raise DomainError("g_tt = 0 and g_tphi u^phi = 0: the normalization leaves u^t free")
    # the roots q/A and C/q with q = -(B + sign(B) sqrt(disc))/2, free of
    # cancellation; on the ergosurface, A = g_tt = 0, the one root is
    # C/q = -C/B, and q = 0 only for the double root 0.  Outside the
    # ergoregion A < 0 < C and one root is positive; inside it u^t is the
    # smaller positive root
    q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
    roots = () if q == 0 else (C / q,) if A == 0 else (q / A, C / q)
    ut = min((root for root in roots if root > 0), default=0.0)
    if ut <= 0:
        raise DomainError("no future-directed completion exists")
    u = TensorValue((UP,), np.array([ut, ur, uth, uph]))
    try:
        return GeodesicState(p, u, causal_type)
    except ValueError as exc:  # u^t > 0, so the norm or the causal type
        raise DomainError(str(exc)) from None
