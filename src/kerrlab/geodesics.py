"""Geodesic integration on Kerr with complete-integrability diagnostics.

The equations of motion are integrated directly in Christoffel form with an
adaptive embedded Runge-Kutta scheme; integrability is exercised by checking
constancy of the four integrals (norm, energy e, axial angular momentum l_z,
and the quadratic Carter invariant k) rather than by quadratures.

Sign conventions: e = -g(u, d/dt) (positive for future-directed orbits at
infinity), l_z = +g(u, d/dphi).  The Carter invariant uses K_ab = Y_ac Y^c_b,
under which k = -l_z^2 for equatorial Schwarzschild orbits.

scipy is imported on first use.  integrate_geodesic calls the module-level
solve_ivp by name, so replacing it there observes every RHS evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StabilityError
from .kerr import BLPoint, KerrParams, _eval, _forms, carter_tensor
from .tensors import UP, TensorValue

# Trajectories stop at r_plus + PLUNGE_GUARD * m.  Boyer-Lindquist components
# degenerate at the horizon: at r - r_plus = delta the 4-velocity components
# grow like 1/delta and quadratic invariants lose ~delta^-2 digits to
# cancellation, so the guard stays at a coordinate-healthy distance.
PLUNGE_GUARD = 1e-2

NORM_TOL = 1e-10  # largest |g(u, u) - target| a state may have
# Largest integrator tolerance.  DOP853's step control needs a tolerance well
# below 1: at 0.1 the default orbit already steps where the right-hand side
# is not finite, and at 1 the solver stops on a NaN.
MAX_TOL = 1e-3


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call."""
    from scipy.integrate import solve_ivp

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
        g = _eval("g", self.x.params, self.x)
        norm = uc @ g @ uc
        target = -1.0 if self.causal_type == "timelike" else 0.0
        if abs(norm - target) > NORM_TOL:
            raise ValueError(
                f"4-velocity norm {norm} does not match {self.causal_type} target {target}"
            )

    @property
    def params(self):
        return self.x.params


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
    """e = -g(u, d/dt), l_z = g(u, d/dphi), k = K_ab u^a u^b."""
    g = _eval("g", params, s.x)
    u = s.u.real_part()
    K = carter_tensor(params, s.x).real_part()
    return ConservedSet(
        e=float(-(g @ u)[0]),
        lz=float((g @ u)[3]),
        k=float(u @ K @ u),
    )


def _geodesic_rhs(params):
    gamma_f = _forms()["gamma"]
    m, a = params.m, params.a

    def rhs(tau, y):
        u = y[4:]
        # du^c = -Gamma^c_ab u^a u^b
        du = -(gamma_f(m, a, y[1], y[2]) @ u @ u)
        return np.concatenate([u, du])

    return rhs


@dataclass(frozen=True)
class Trajectory:
    """Sampled geodesic: affine parameter, chart coordinates, velocities, and flags."""

    tau: np.ndarray
    x: np.ndarray  # shape (n, 4): t, r, theta, phi
    u: np.ndarray  # shape (n, 4)
    plunged: bool
    params: KerrParams

    def state(self, i, causal_type) -> GeodesicState:
        p = BLPoint(*self.x[i], self.params)
        return GeodesicState(p, TensorValue((UP,), self.u[i]), causal_type)


def integrate_geodesic(
    params: KerrParams,
    s0: GeodesicState,
    t_max: float,
    tol: float = 1e-10,
    max_tau: float = None,
    n_samples: int = 200,
    max_step: float = np.inf,
) -> Trajectory:
    """Integrate until coordinate time t_max (or affine parameter max_tau).

    Plunging trajectories stop at r = r_plus + 1e-2 m and the partial
    trajectory is returned with plunged=True.

    max_step caps the solver step: the trajectory is sampled through the
    dense-output interpolant, whose error on large steps can exceed the
    integration error at tight tolerances.
    """
    if t_max <= 0:
        raise DomainError("t_max must be positive")
    if not 0 < tol <= MAX_TOL:
        raise DomainError(f"tol must be positive and at most {MAX_TOL}")
    y0 = np.concatenate([s0.x.coords, s0.u.real_part()])
    r_stop = params.r_plus + PLUNGE_GUARD * params.m
    if max_tau is None:
        # u^t >= 1 outside the ergoregion for the states of interest; the
        # coordinate-time event below is what actually ends the run.
        max_tau = 10.0 * t_max

    def hit_time(tau, y):
        return y[0] - t_max

    hit_time.terminal = True
    hit_time.direction = 1

    def hit_horizon(tau, y):
        return y[1] - r_stop

    hit_horizon.terminal = True
    hit_horizon.direction = -1

    sol = solve_ivp(
        _geodesic_rhs(params),
        (0.0, max_tau),
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol,
        max_step=max_step,
        dense_output=True,
        events=(hit_time, hit_horizon),
    )
    if not sol.success:
        raise StabilityError(f"geodesic integration failed: {sol.message}")
    plunged = len(sol.t_events[1]) > 0
    tau_end = sol.t[-1]
    taus = np.linspace(0.0, tau_end, n_samples)
    ys = sol.sol(taus)
    return Trajectory(tau=taus, x=ys[:4].T.copy(), u=ys[4:].T.copy(), plunged=plunged, params=params)


def conserved_series(params: KerrParams, x, u) -> np.ndarray:
    """(e, l_z, k, norm) at every sample of chart positions x and velocities
    u (both shape (n, 4)), in one broadcasting pass over the closed forms.

    Unlike conserved_quantities this validates nothing, so the integrator's
    O(tol) norm drift shows up in the values instead of aborting them.
    """
    forms = _forms()
    g = forms["g"](params.m, params.a, x[:, 1], x[:, 2])
    K = forms["K"](params.m, params.a, x[:, 1], x[:, 2])
    gu = np.einsum("nab,nb->na", g, u)
    return np.stack([-gu[:, 0], gu[:, 3],
                     np.einsum("na,nab,nb->n", u, K, u),
                     np.einsum("na,na->n", u, gu)], axis=1)


def conserved_drift(params: KerrParams, traj: Trajectory, causal_type: str):
    """Max relative drift of (e, l_z, k, norm) along a sampled trajectory."""
    vals = conserved_series(params, traj.x, traj.u)
    ref = vals[0]
    scale = np.maximum(np.abs(ref), 1.0)
    return np.max(np.abs(vals - ref) / scale, axis=0)


def _angular_velocity(A, B, C, prograde, no_root):
    """The prograde (larger) or retrograde root Omega of A Omega^2 + B Omega + C = 0;
    DomainError(no_root) when there is no real root."""
    disc = B * B - 4 * A * C
    if disc < 0:
        raise DomainError(no_root)
    roots = sorted(((-B - math.sqrt(disc)) / (2 * A), (-B + math.sqrt(disc)) / (2 * A)))
    return roots[1] if prograde else roots[0]


def circular_orbit_state(params: KerrParams, r: float, prograde=True) -> GeodesicState:
    """Equatorial circular timelike orbit at Boyer-Lindquist radius r.

    The angular velocity solves the radial geodesic equation
    Gamma^r_tt + 2 Omega Gamma^r_tphi + Omega^2 Gamma^r_phiphi = 0 and the
    4-velocity is normalized to g(u,u) = -1.
    """
    p = BLPoint(0.0, r, math.pi / 2, 0.0, params)
    gamma = _eval("gamma", params, p)
    omega = _angular_velocity(gamma[1, 3, 3], 2.0 * gamma[1, 0, 3], gamma[1, 0, 0], prograde,
                              f"no circular orbit at r={r}")
    g = _eval("g", params, p)
    quad = g[0, 0] + 2 * omega * g[0, 3] + omega**2 * g[3, 3]
    if quad >= 0:
        raise DomainError(f"circular orbit at r={r} is not timelike")
    ut = 1.0 / math.sqrt(-quad)
    u = np.array([ut, 0.0, 0.0, omega * ut])
    return GeodesicState(p, TensorValue((UP,), u), "timelike")


def null_circular_state(params: KerrParams, r: float, prograde=True) -> GeodesicState:
    """Tangential null ray at radius r in the equatorial plane."""
    p = BLPoint(0.0, r, math.pi / 2, 0.0, params)
    g = _eval("g", params, p)
    # g_tt + 2 Omega g_tphi + Omega^2 g_phiphi = 0
    omega = _angular_velocity(g[3, 3], 2 * g[0, 3], g[0, 0], prograde,
                              f"no null directions at r={r}")
    u = np.array([1.0, 0.0, 0.0, omega])
    return GeodesicState(p, TensorValue((UP,), u), "null")


def photon_orbit_radius(params: KerrParams, bracket, prograde=True, tol=1e-14) -> float:
    """Equatorial circular-photon-orbit radius inside the given bracket.

    Root of the radial geodesic equation evaluated on the tangential null
    direction: Gamma^r_tt + 2 Omega Gamma^r_tphi + Omega^2 Gamma^r_phiphi = 0
    with Omega the prograde/retrograde null angular velocity.
    """
    lo, hi = bracket
    if lo <= params.r_plus:
        raise DomainError("bracket must lie inside the exterior")

    def residual(r):
        p = BLPoint(0.0, r, math.pi / 2, 0.0, params)
        g = _eval("g", params, p)
        omega = _angular_velocity(g[3, 3], 2 * g[0, 3], g[0, 0], prograde,
                                  f"no null directions at r={r}")
        gamma = _eval("gamma", params, p)
        return gamma[1, 0, 0] + 2 * omega * gamma[1, 0, 3] + omega**2 * gamma[1, 3, 3]

    f_lo, f_hi = residual(lo), residual(hi)
    if f_lo * f_hi > 0:
        raise DomainError(f"no photon-orbit root in bracket {bracket}")
    from scipy.optimize import brentq

    return float(brentq(residual, lo, hi, xtol=tol))


def normalize_velocity(params: KerrParams, p: BLPoint, u_spatial, causal_type="timelike"):
    """Complete (u^r, u^theta, u^phi) to a future-directed 4-velocity.

    Solves the quadratic normalization condition for u^t > 0.  DomainError
    if float64 rounding of g_ab u^a u^b (large speeds) exceeds NORM_TOL.
    """
    g = _eval("g", params, p)
    ur, uth, uph = u_spatial
    A = g[0, 0]
    B = 2 * g[0, 3] * uph
    target = -1.0 if causal_type == "timelike" else 0.0
    C = g[1, 1] * ur**2 + g[2, 2] * uth**2 + g[3, 3] * uph**2 - target
    disc = B * B - 4 * A * C
    if disc < 0:
        raise DomainError("no real future-directed completion exists")
    # A = g_tt < 0 outside the ergoregion; take the root with u^t > 0
    ut = (-B - math.sqrt(disc)) / (2 * A)
    if ut <= 0:
        ut = (-B + math.sqrt(disc)) / (2 * A)
    if ut <= 0:
        raise DomainError("no future-directed completion exists")
    u = TensorValue((UP,), np.array([ut, ur, uth, uph]))
    norm = u.real_part() @ g @ u.real_part()  # as GeodesicState computes it
    if abs(norm - target) > NORM_TOL:
        raise DomainError(f"4-velocity norm {norm} misses target {target}: speed too large")
    return GeodesicState(p, u, causal_type)
