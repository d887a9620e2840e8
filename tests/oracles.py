"""Independent references that the unit tests hold kerrlab's program paths
against.  No subcommand runs them, so they live here, not in the library.

  * waves: the tortoise map r*(r) in closed form, which the Newton inversion
    `horizon_gap_from_tortoise` must invert; Box psi and the Carter operator
    Q of a field at its current time, read from the final window that
    `evolve` returns; and the symmetry words d_t^n_t d_phi^n_phi Q^n_Q of
    S_0..S_2 (Andersson & Blue, Ann. of Math. 182 (2015)), one word at a
    time, which `_densities` folds into four base fields.
  * hyperbolic1d: the discrete Dirac operator D u, which the Dirac solvers'
    solutions must satisfy; the retarded and advanced Green's operators and
    the causal propagator G = G_+ - G_- (Baer, Comm. Math. Phys. 333 (2015)),
    one Cauchy solve each, against the stacked march of
    `green_clause_residuals`.
  * index2d: the Abel-summed eta series, against `eta_h_circle`'s closed
    form, and the time reflection of a connection profile.
  * geodesics: the equatorial circular orbit (Bardeen, Press & Teukolsky,
    ApJ 178 (1972)), and one sample of a trajectory as a state.
  * slices: flat space.

The test modules import this file as `oracles` (pytest puts tests/ on the
path); it is not collected, since its name does not start with test_.
"""

from __future__ import annotations

import math

import numpy as np

from kerrlab import (BLPoint, ConnectionProfile, DomainError, GeodesicState, SliceData,
                     TensorValue)
from kerrlab._stencils import _diff
from kerrlab.geodesics import conserved_series
from kerrlab.hyperbolic1d import _dirac, _green_source, _twist, cauchy_solve
from kerrlab.kerr import _at
from kerrlab.tensors import UP
from kerrlab.waves import _centered_dt, _stack, box_stack, carter_q_stack

# ---------------------------------------------------------------------------
# waves
# ---------------------------------------------------------------------------


def tortoise_from_radius(params, r):
    """r*(r) = r + (2m r+ / (r+ - r-)) ln((r - r+)/(2m)) - (r- mirror term)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= params.r_plus):
        raise DomainError("tortoise map needs r > r_plus")
    m, rp, rm = params.m, params.r_plus, params.r_minus
    out = r + (2 * m * rp / (rp - rm)) * np.log((r - rp) / (2 * m))
    if rm > 1e-14:
        out -= (2 * m * rm / (rp - rm)) * np.log((r - rm) / (2 * m))
    return out


def carter_Q(field):
    """Q psi at the field's current time, the d_t^2 from its history
    (levels, dt), of which psi is levels[-4]."""
    if field.history is None:
        raise DomainError("carter_Q needs an evolver-maintained history")
    levels, dt = field.history
    return carter_q_stack(field.grid, _stack(levels, 5, "carter_Q")[-5:-2], dt)[0]


def reduced_wave_apply(field):
    """Box psi at the field's current time, the time derivatives from its
    history, which must then hold at least 5 levels; without a history the
    field is treated as stationary (a constant stack, so the time-derivative
    terms vanish), which is exact for static test profiles."""
    if field.history is None:
        return box_stack(field.grid, np.array([field.psi] * 3), 1.0)[0]
    levels, dt = field.history
    return box_stack(field.grid, _stack(levels, 5, "reduced_wave_apply")[-5:-2], dt)[0]


# the words (n_t, n_phi, n_Q) of S_0, S_1 and S_2
S2_WORDS = ((2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1))  # d_t^2, d_t d_phi, d_phi^2, Q
S1_WORDS = ((1, 0, 0), (0, 1, 0))
S0_WORDS = ((0, 0, 0),)


def symmetry_apply(grid, stack, dt, word):
    """Apply d_t^{n_t} d_phi^{n_phi} Q^{n_Q} to a stack of time levels.

    Each d_t or Q consumes one level from each end of the stack.
    Returns the transformed (shorter) stack.
    """
    n_t, n_phi, n_q = word
    if n_t + n_phi + 2 * n_q > 3:
        raise DomainError("symmetry words above total order 3 are unsupported")
    stack = _stack(stack, 2 * (n_t + n_q) + 1, "symmetry_apply")
    for _ in range(n_t):
        stack = _centered_dt(stack, dt)
    stack = stack * (1j * grid.m_phi) ** n_phi
    for _ in range(n_q):
        stack = carter_q_stack(grid, stack, dt)
    return stack


# ---------------------------------------------------------------------------
# hyperbolic1d
# ---------------------------------------------------------------------------


def apply_dirac(data_connection, grid, u):
    """Discrete D u at interior time levels 1..n_t-1 (second-order stencils)."""
    u = np.asarray(u, dtype=complex)
    a = _twist(data_connection, grid.t[1:-1], grid.h_t)[0]
    return _dirac(a, u[1:-1], _diff(u, "d1", grid.h_t), grid.h_x)


def green(grid, direction, f, potential=None):
    """Retarded (G_+) or advanced (G_-) Green's operator applied to f.

    G_+ f solves P u = f with u = 0 to the past of supp f; G_- f mirrors to
    the future.  The source must vanish on a collar at both temporal ends so
    that the zero-data region exists on the grid.
    """
    if direction not in ("retarded", "advanced"):
        raise DomainError(f"unknown direction {direction!r}")
    f = _green_source(grid, f)
    if direction == "retarded":
        return cauchy_solve(grid, f=f, potential=potential)
    # advanced: time-reflect, solve retarded, reflect back (the operator has
    # no first-order time term when twist is absent, so P is reflection-even)
    return cauchy_solve(grid, f=f[::-1], potential=potential)[::-1]


def causal_propagator(grid, f, potential=None):
    """G f = G_+ f - G_- f."""
    return green(grid, "retarded", f, potential) - green(grid, "advanced", f, potential)


# ---------------------------------------------------------------------------
# index2d
# ---------------------------------------------------------------------------


def eta_abel_oracle(a_value):
    """Abel-summed eta series sum_k sign(k + a) exp(-s |k + a|) at s = 1e-4.

    Converges to 1 - 2 frac(a) as s -> 0 for non-integer a.  The two
    geometric tails are summed in closed form so s can be taken small.
    """
    s = 1e-4
    frac = a_value - math.floor(a_value)
    if frac == 0.0:
        return 0.0
    # positive eigenvalues: frac, frac+1, ... ; negative: frac-1, frac-2, ...
    pos = math.exp(-s * frac) / (1.0 - math.exp(-s))
    neg = math.exp(-s * (1.0 - frac)) / (1.0 - math.exp(-s))
    return pos - neg


def reversed_profile(profile):
    """Time reflection t -> T - t."""
    return ConnectionProfile(a=lambda t: profile.a(profile.T - t), T=profile.T)


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


def circular_orbit_state(params, r):
    """Equatorial prograde circular timelike orbit at Boyer-Lindquist radius r.

    The angular velocity, the larger root, solves the radial geodesic equation
    Gamma^r_tt + 2 Omega Gamma^r_tphi + Omega^2 Gamma^r_phiphi = 0 and the
    4-velocity is normalized to g(u,u) = -1.
    """
    p = BLPoint(0.0, r, math.pi / 2, 0.0, params)
    [gamma] = _at(params, p.r, p.theta, "gamma")
    A, B, C = gamma[1, 3, 3], 2.0 * gamma[1, 0, 3], gamma[1, 0, 0]  # A Omega^2 + B Omega + C
    disc = B * B - 4 * A * C
    if disc < 0:
        raise DomainError(f"no circular orbit at r={r}")
    omega = max((-B - math.sqrt(disc)) / (2 * A), (-B + math.sqrt(disc)) / (2 * A))
    quad = conserved_series(params, p.coords[None], np.array([[1.0, 0.0, 0.0, omega]]))[0, 3]
    if quad >= 0:
        raise DomainError(f"circular orbit at r={r} is not timelike")
    ut = 1.0 / math.sqrt(-quad)
    u = np.array([ut, 0.0, 0.0, omega * ut])
    return GeodesicState(p, TensorValue((UP,), u), "timelike")


def trajectory_state(traj, i, causal_type):
    """Sample i of a Trajectory as a GeodesicState."""
    p = BLPoint(*traj.x[i], traj.params)
    return GeodesicState(p, TensorValue((UP,), traj.u[i]), causal_type)


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------


def flat_slice():
    """Euclidean 3-space with vanishing extrinsic curvature."""
    return SliceData(
        h_sampler=lambda p: np.eye(3),
        k_sampler=lambda p: np.zeros((3, 3)),
    )
