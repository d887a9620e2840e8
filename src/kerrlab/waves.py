"""Fixed-azimuthal-mode scalar waves on the Kerr exterior.

The field psi(t, r*, theta) e^{i m_phi phi} is evolved on a uniform
(tortoise, polar-angle) lattice with a second-order leapfrog scheme.  The
module provides the reduced wave operator, the Carter operator Q, the
second-order symmetry-algebra pointwise norms, the model energy, and the
Morawetz bulk integral with a trapping cutoff.

Operator conventions.  With Sigma = r^2 + a^2 cos^2 theta the combination
Sigma Box splits as R(r) + Q + d_phi^2-terms where R involves only (t, r)
derivatives, so [Q, Sigma Box] = 0 in the continuum while [Q, Box] does not
vanish for a != 0.  The spatial operator c1 D2 + c2 D1 + c3 Lambda_theta - c4
(`_spatial`, with c1..c5 the Sigma Box coefficients times Delta/Pi) is
defined once: the leapfrog step, its Taylor start and the Sigma Box / Box
diagnostics all apply it, the diagnostics as the residual
(Pi/Delta)(spatial - d_t^2 - i m_phi c5 d_t) of the evolved equation.
Discretely, Q uses the flux form with trapezoid-averaged face weights while
Sigma Box uses exact face values; the two stencils differ at a uniform
O(h^2) (including the pole cells), which makes the discrete commutator a
genuine O(h^2) quantity instead of an exact zero.

All stencils act on the last two axes (r*, theta), so a stack of time
levels, or any other leading batch axes, is differentiated in one call.

Time derivatives in diagnostics are always taken from a centered stack of
consecutive time levels; the evolver bootstraps levels on both sides of the
report time (leapfrog is time-reversible) so that t = 0 reports are exact
to the scheme's order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StabilityError
from .kerr import KerrParams, _forms

# ---------------------------------------------------------------------------
# tortoise coordinate
# ---------------------------------------------------------------------------


def tortoise_from_radius(params: KerrParams, r):
    """r*(r) = r + (2m r+ / (r+ - r-)) ln((r - r+)/(2m)) - (r- mirror term)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= params.r_plus):
        raise DomainError("tortoise map needs r > r_plus")
    m, rp, rm = params.m, params.r_plus, params.r_minus
    out = r + (2 * m * rp / (rp - rm)) * np.log((r - rp) / (2 * m))
    if rm > 1e-14:
        out -= (2 * m * rm / (rp - rm)) * np.log((r - rm) / (2 * m))
    return out


def horizon_gap_from_tortoise(params: KerrParams, rstar):
    """rho = r - r_plus as a function of r*, solved by Newton in log(rho).

    Working in log space keeps the horizon approach (rho down to ~1e-300)
    well-conditioned; Delta should be reconstructed as rho*(rho + r+ - r-).
    """
    rstar = np.atleast_1d(np.asarray(rstar, dtype=float))
    m, rp, rm = params.m, params.r_plus, params.r_minus
    A = 2 * m * rp / (rp - rm)
    B = 2 * m * rm / (rp - rm)
    out = np.empty_like(rstar)
    for i, s in enumerate(rstar):
        # initial guess: far field rho ~ s - rp, near field log rho ~ (s - rp)/A
        u = math.log(max(s - rp, 1e-3)) if s > rp + 1.0 else (s - rp) / A
        for _ in range(100):
            rho = math.exp(u)
            r = rp + rho
            F = r + A * math.log(rho / (2 * m)) - s
            if rm > 1e-14:
                F -= B * math.log((rho + rp - rm) / (2 * m))
            dF_du = (r**2 + params.a**2) / (rho + rp - rm)
            step = F / dF_du
            u -= step
            if abs(step) < 1e-15 * max(1.0, abs(u)):
                break
        else:
            raise DomainError(f"tortoise inversion did not converge at r*={s}")
        out[i] = math.exp(u)
    return out if out.shape != (1,) else float(out[0])


def radius_from_tortoise(params: KerrParams, rstar):
    """Inverse of the tortoise map."""
    rho = horizon_gap_from_tortoise(params, rstar)
    return params.r_plus + rho


def cutoff_bump(r, m):
    """C^2 cutoff vanishing on r in [2.5m, 3.5m], equal to 1 outside [2.2m, 3.8m].

    Quintic smootherstep transitions on the two collars.
    """
    x = np.asarray(r, dtype=float) / m
    out = np.ones_like(x)

    def smooth(s):  # 0 -> 1 with vanishing first and second derivatives at both ends
        s = np.clip(s, 0.0, 1.0)
        return s**3 * (10.0 - 15.0 * s + 6.0 * s**2)

    left = (x > 2.2) & (x < 2.5)
    right = (x > 3.5) & (x < 3.8)
    mid = (x >= 2.5) & (x <= 3.5)
    out[mid] = 0.0
    out[left] = 1.0 - smooth((x[left] - 2.2) / 0.3)
    out[right] = smooth((x[right] - 3.5) / 0.3)
    return out


# ---------------------------------------------------------------------------
# grid and field
# ---------------------------------------------------------------------------


class WaveGrid:
    """Uniform (r*, theta) lattice with precomputed reduced-operator coefficients.

    theta is cell-centered: theta_j = (j + 1/2) pi / n_theta, so the poles sit
    on cell faces where the conservative angular flux vanishes identically.
    """

    def __init__(self, params: KerrParams, m_phi: int, n_r: int, n_theta: int,
                 rstar_min: float, rstar_max: float):
        if n_r < 16 or n_theta < 8:
            raise DomainError("grid too coarse for the stencils")
        if rstar_min >= rstar_max:
            raise DomainError("empty tortoise range")
        self.params = params
        self.m_phi = int(m_phi)
        self.n_r, self.n_theta = int(n_r), int(n_theta)
        self.rstar = np.linspace(rstar_min, rstar_max, n_r)
        self.h_r = self.rstar[1] - self.rstar[0]
        self.h_theta = math.pi / n_theta
        self.theta = (np.arange(n_theta) + 0.5) * self.h_theta

        m, a = params.m, params.a
        rho = np.atleast_1d(np.asarray(horizon_gap_from_tortoise(params, self.rstar)))
        r = params.r_plus + rho
        self.r = r
        # Delta = (r - r+)(r - r-) assembled from the horizon gap, which stays
        # accurate even where r - r+ underflows relative to r itself
        delta = rho * (rho + params.r_plus - params.r_minus)
        self.delta = delta
        sin = np.sin(self.theta)
        cos = np.cos(self.theta)
        self.sin_theta, self.cos_theta = sin, cos
        self.sigma = r[:, None] ** 2 + a**2 * cos[None, :] ** 2
        pi_r = (r**2 + a**2) ** 2  # theta-independent part of Pi
        # Pi = (r^2+a^2)^2 - Delta a^2 sin^2 theta
        self.Pi = pi_r[:, None] - delta[:, None] * a**2 * sin[None, :] ** 2

        # d_t^2 psi = c1 d_rs^2 + c2 d_rs + c3 Lambda_theta - c4 psi - i m_phi c5 d_t psi
        self.c1 = pi_r[:, None] / self.Pi
        self.c2 = 2 * r[:, None] * delta[:, None] / self.Pi
        self.c3 = delta[:, None] / self.Pi
        self.c4 = self.m_phi**2 * (
            delta[:, None] / (self.Pi * sin[None, :] ** 2) - a**2 / self.Pi
        )
        self.c5 = 4 * m * a * r[:, None] / self.Pi

        # Lambda_theta face weights, both exactly 0 at the poles: sin(theta)
        # at the faces (conservative), and the mean of the two neighbouring
        # cell-centre sines, ghost cells included (trapezoid, Q's variant)
        faces = np.arange(n_theta + 1) * self.h_theta
        self.sin_face = np.sin(faces)
        theta_pad = np.concatenate([[-self.theta[0]], self.theta, [math.pi + self.theta[0]]])
        self.sin_face_trap = 0.5 * (np.sin(theta_pad[:-1]) + np.sin(theta_pad[1:]))
        self.parity = (-1.0) ** self.m_phi

    def max_wave_speed_sq(self):
        """Explicit-stability estimate: largest eigenvalue of the spatial operator."""
        lam = (
            4.0 * self.c1 / self.h_r**2
            + np.abs(self.c2) / self.h_r
            + 4.0 * self.c3 / self.h_theta**2
            + np.abs(self.c4)
        )
        return float(np.max(lam))


def _ghost_pad_theta(psi, parity):
    """Pad the theta (last) axis with reflection ghosts: psi(-theta) = parity * psi(theta)."""
    return np.concatenate(
        [parity * psi[..., :1], psi, parity * psi[..., -1:]], axis=-1
    )


def _lambda_theta_flux(grid: WaveGrid, psi, face_weight):
    """(1/sin) d_theta (w d_theta psi) in flux form, w given at faces 0..n_theta."""
    h = grid.h_theta
    flux = np.diff(_ghost_pad_theta(psi, grid.parity), axis=-1) / h * face_weight
    return np.diff(flux, axis=-1) / (h * grid.sin_theta)


def lambda_theta_conservative(grid: WaveGrid, psi):
    """(1/sin) d_theta (sin d_theta psi) in flux form (pole flux exactly zero)."""
    return _lambda_theta_flux(grid, psi, grid.sin_face)


def lambda_theta_trapezoid(grid: WaveGrid, psi):
    """Flux form of Lambda_theta with trapezoid-averaged face weights (Q's variant).

    The face coefficient is (sin theta_j + sin theta_{j+1})/2 over cell centers
    (ghost cells included), which vanishes identically at both poles by the
    oddness of sin, so the zero-pole-flux property is preserved.  The weight
    differs from the exact face value by O(h^2) * sin(theta_face), so the
    discrepancy with the conservative variant stays uniformly O(h^2) after
    division by sin(theta_j), including at the pole cells.
    """
    return _lambda_theta_flux(grid, psi, grid.sin_face_trap)


def d_rstar(grid: WaveGrid, psi):
    """Central first tortoise derivative (axis -2); one-sided second order at the ends."""
    out = np.empty_like(psi)
    h = grid.h_r
    out[..., 1:-1, :] = (psi[..., 2:, :] - psi[..., :-2, :]) / (2 * h)
    out[..., 0, :] = (-3.0 * psi[..., 0, :] + 4.0 * psi[..., 1, :] - psi[..., 2, :]) / (2 * h)
    out[..., -1, :] = (3.0 * psi[..., -1, :] - 4.0 * psi[..., -2, :] + psi[..., -3, :]) / (2 * h)
    return out


def d2_rstar(grid: WaveGrid, psi):
    out = np.empty_like(psi)
    h2 = grid.h_r**2
    out[..., 1:-1, :] = (psi[..., 2:, :] - 2.0 * psi[..., 1:-1, :] + psi[..., :-2, :]) / h2
    out[..., 0, :] = (2.0 * psi[..., 0, :] - 5.0 * psi[..., 1, :] + 4.0 * psi[..., 2, :]
                      - psi[..., 3, :]) / h2
    out[..., -1, :] = (2.0 * psi[..., -1, :] - 5.0 * psi[..., -2, :] + 4.0 * psi[..., -3, :]
                       - psi[..., -4, :]) / h2
    return out


def d_theta(grid: WaveGrid, psi):
    p = _ghost_pad_theta(psi, grid.parity)
    return (p[..., 2:] - p[..., :-2]) / (2.0 * grid.h_theta)


def _spatial(grid: WaveGrid, psi):
    """The spatial wave operator c1 D2 + c2 D1 + c3 Lambda_theta - c4.

    The one definition shared by the evolver and the Sigma Box / Box
    diagnostics: d_t^2 psi = _spatial(psi) - i m_phi c5 d_t psi.
    """
    return (
        grid.c1 * d2_rstar(grid, psi)
        + grid.c2 * d_rstar(grid, psi)
        + grid.c3 * lambda_theta_conservative(grid, psi)
        - grid.c4 * psi
    )


@dataclass
class ModeField2p1:
    """Field state: psi and psi_t on the grid at a given time.

    history, when present, is a (levels, dt) pair of consecutive psi levels
    maintained by the evolver for time-derivative diagnostics; `psi` sits at
    levels[-4], i.e. the levels extend three steps past `time`.
    """

    grid: WaveGrid
    psi: np.ndarray
    psi_t: np.ndarray
    time: float = 0.0
    history: tuple = None  # (ndarray of shape (L, n_r, n_theta), dt)

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        self.psi_t = np.asarray(self.psi_t, dtype=complex)
        shape = (self.grid.n_r, self.grid.n_theta)
        if self.psi.shape != shape or self.psi_t.shape != shape:
            raise DomainError(f"field arrays must have shape {shape}")
        self.check_finite()

    def check_finite(self):
        if not (np.all(np.isfinite(self.psi)) and np.all(np.isfinite(self.psi_t))):
            raise StabilityError("non-finite field values")

    @property
    def m_phi(self):
        return self.grid.m_phi

    @property
    def params(self):
        return self.grid.params


# ---------------------------------------------------------------------------
# stack operators (a stack is psi on consecutive time levels, axis 0)
# ---------------------------------------------------------------------------


def _centered_dtt(stack, dt, who):
    """The stack as complex levels, and the centered d_t^2 of its interior levels."""
    stack = np.asarray(stack, dtype=complex)
    if stack.shape[0] < 3:
        raise DomainError(f"{who} needs at least 3 time levels")
    return stack, (stack[2:] - 2.0 * stack[1:-1] + stack[:-2]) / dt**2


def sigma_box_stack(grid: WaveGrid, stack, dt):
    """Apply Sigma Box to a stack of time levels; consumes one level per end.

    Sigma Box = -(Pi/Delta) d_t^2 - (4 m a r / Delta) d_t d_phi
                + d_rs((r^2+a^2)^2/Delta d_rs) + 2r d_rs
                + Lambda_theta - m^2 (1/sin^2 - a^2/Delta),
    evaluated as (Pi/Delta)(_spatial - d_t^2 - i m_phi c5 d_t): the residual
    of the evolved equation in the normalization of Sigma Box.
    """
    stack, dtt = _centered_dtt(stack, dt, "sigma_box_stack")
    dt1 = (stack[2:] - stack[:-2]) / (2.0 * dt)
    residual = _spatial(grid, stack[1:-1]) - dtt - 1j * grid.m_phi * grid.c5 * dt1
    return (grid.Pi / grid.delta[:, None]) * residual


def box_stack(grid: WaveGrid, stack, dt):
    """Box psi = (Sigma Box psi) / Sigma on each retained level."""
    return sigma_box_stack(grid, stack, dt) / grid.sigma


def carter_q_stack(grid: WaveGrid, stack, dt):
    """Carter operator Q = Lambda_theta + (1/sin^2) d_phi^2 + a^2 sin^2 d_t^2.

    Uses the trapezoid-face theta stencil (see module docstring); consumes one
    level per end of the stack for the centered d_t^2.
    """
    stack, dtt = _centered_dtt(stack, dt, "carter_q_stack")
    sin2 = grid.sin_theta**2
    return (
        lambda_theta_trapezoid(grid, stack[1:-1])
        - grid.m_phi**2 / sin2 * stack[1:-1]
        + grid.params.a**2 * sin2 * dtt
    )


def carter_Q(field: ModeField2p1):
    """Q psi at the field's current time, using the stored history for d_t^2."""
    if field.history is None:
        raise DomainError("carter_Q needs an evolver-maintained history")
    levels, dt = field.history
    if levels.shape[0] < 5:
        raise DomainError("history too short for the d_t^2 stencil")
    return carter_q_stack(grid=field.grid, stack=levels[-5:-2], dt=dt)[0]


def reduced_wave_apply(field: ModeField2p1):
    """Box psi on the grid.

    Uses the stored history for time derivatives when available; otherwise
    the field is treated as stationary (a constant stack, so the
    time-derivative terms vanish), which is exact for static test profiles.
    """
    grid = field.grid
    if field.history is not None and field.history[0].shape[0] >= 5:
        levels, dt = field.history
        return box_stack(grid, levels[-5:-2], dt)[0]
    return box_stack(grid, np.array([field.psi] * 3), 1.0)[0]


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def _step(grid: WaveGrid, psi_prev, psi, dt):
    """One leapfrog step: returns psi at t + dt.

    The first-order rotation term is treated with a centered implicit
    average, which for the diagonal i*m*c5 coefficient is a scalar solve.
    """
    rhs = _spatial(grid, psi)
    imc = 1j * grid.m_phi * grid.c5
    denom = 1.0 + 0.5 * dt * imc
    new = (2.0 * psi - psi_prev + dt**2 * rhs + 0.5 * dt * imc * psi_prev) / denom

    # Sommerfeld boundaries: outgoing d_t psi = +/- sqrt(c1) d_rs psi,
    # discretized with a trapezoidal one-sided update.
    h = grid.h_r
    for side, sgn in ((0, 1.0), (-1, -1.0)):
        c = math.sqrt(float(np.max(grid.c1[side])))
        if side == 0:
            d_new = (4.0 * new[1] - new[2]) / (2 * h)
            d_old = (-3.0 * psi[0] + 4.0 * psi[1] - psi[2]) / (2 * h)
            coef = 3.0 / (2 * h)
            # d psi/dt = +c d_rs psi  (left-moving radiation exits)
            new[0] = (psi[0] + 0.5 * dt * c * (d_new + d_old)) / (1.0 + 0.5 * dt * c * coef)
        else:
            d_new = (-4.0 * new[-2] + new[-3]) / (2 * h)
            d_old = (3.0 * psi[-1] - 4.0 * psi[-2] + psi[-3]) / (2 * h)
            coef = 3.0 / (2 * h)
            # d psi/dt = -c d_rs psi  (right-moving radiation exits)
            new[-1] = (psi[-1] - 0.5 * dt * c * (d_new + d_old)) / (1.0 + 0.5 * dt * c * coef)
    return new


def _bootstrap_prev(grid, psi, psi_t, dt):
    """Second-order accurate psi(t - dt) from Cauchy data via a Taylor start."""
    rhs = _spatial(grid, psi) - 1j * grid.m_phi * grid.c5 * psi_t
    return psi - dt * psi_t + 0.5 * dt**2 * rhs


@dataclass(frozen=True)
class EnergyReport:
    """Model energy and Morawetz bulk bookkeeping at one report time."""

    time: float
    e_model3: float
    bulk_increment: float
    bulk_cumulative: float
    ratio: float

    def __post_init__(self):
        vals = (self.e_model3, self.bulk_increment, self.bulk_cumulative, self.ratio)
        if not all(math.isfinite(v) and v >= 0.0 for v in vals):
            raise StabilityError(f"non-finite or negative energy report at t={self.time}")


def evolve(field: ModeField2p1, t_end: float, cfl: float = 0.5, report_dt: float = None,
           diagnostics: bool = True):
    """Leapfrog evolution to t_end; returns (final field, [EnergyReport...]).

    cfl scales the explicit-stability step estimate.  Reports are emitted
    every report_dt of coordinate time (default: 8 report times total),
    computed from centered 5-level stacks; the ratio column is
    bulk_cumulative / e_model3(t=0).
    """
    if not (0.0 < cfl < 1.0):
        raise DomainError("cfl must lie in (0, 1)")
    grid = field.grid
    dt = cfl * 2.0 / math.sqrt(grid.max_wave_speed_sq())
    n_steps = max(int(math.ceil(t_end / dt)), 5)
    dt = t_end / n_steps
    if report_dt is None:
        report_dt = t_end / 8.0
    report_stride = max(int(round(report_dt / dt)), 1)

    # build levels at t = -3dt .. +3dt around t=0 (leapfrog is reversible);
    # diagnostics need 3 extra levels on each side of a report time
    psi0 = field.psi.copy()
    prev = _bootstrap_prev(grid, psi0, field.psi_t, dt)
    nxt = _bootstrap_prev(grid, psi0, field.psi_t, -dt)
    levels = [prev, psi0, nxt]
    for _ in range(2):
        levels.insert(0, _step(grid, levels[1], levels[0], -dt))
        levels.append(_step(grid, levels[-2], levels[-1], dt))

    reports = []
    bulk_cum = 0.0
    e0 = None
    last_bulk_t = None
    last_bulk_val = None

    def emit(center_index, t_center):
        nonlocal bulk_cum, e0, last_bulk_t, last_bulk_val
        energy, bulk = _densities(grid, np.array(levels[center_index - 3: center_index + 4]), dt)
        e, b = _slice_integral(grid, energy), _slice_integral(grid, bulk)
        if e0 is None:
            e0 = e if e > 0 else 1.0
        if last_bulk_t is not None:
            bulk_cum += 0.5 * (b + last_bulk_val) * (t_center - last_bulk_t)
        last_bulk_t, last_bulk_val = t_center, b
        reports.append(
            EnergyReport(
                time=t_center,
                e_model3=e,
                bulk_increment=b,
                bulk_cumulative=bulk_cum,
                ratio=bulk_cum / e0,
            )
        )

    if diagnostics:
        emit(3, 0.0)

    # march: levels[-1] currently holds t = 3dt; keep a rolling 7-level window
    step_of_last = 3  # time index (in units of dt) of levels[-1]
    while step_of_last < n_steps + 3:
        new = _step(grid, levels[-2], levels[-1], dt)
        if not np.all(np.isfinite(new)):
            raise StabilityError(f"NaN/Inf at step {step_of_last + 1}")
        levels.append(new)
        if len(levels) > 7:
            levels.pop(0)
        step_of_last += 1
        center = step_of_last - 3
        if diagnostics and center > 0 and (center % report_stride == 0 or center == n_steps):
            if center <= n_steps:
                emit(len(levels) - 4, center * dt)

    # final state at t_end = n_steps * dt sits at the window center
    psi_final = levels[-4]
    psi_t_final = (levels[-3] - levels[-5]) / (2 * dt)
    hist = (np.array(levels), dt)
    out = ModeField2p1(grid=grid, psi=psi_final, psi_t=psi_t_final,
                       time=n_steps * dt, history=hist)
    return out, reports


# ---------------------------------------------------------------------------
# symmetry algebra and norms
# ---------------------------------------------------------------------------

S2_WORDS = ((2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1))  # d_t^2, d_t d_phi, d_phi^2, Q
S1_WORDS = ((1, 0, 0), (0, 1, 0))
S0_WORDS = ((0, 0, 0),)


def symmetry_apply(grid: WaveGrid, stack, dt, word):
    """Apply d_t^{n_t} d_phi^{n_phi} Q^{n_Q} to a stack of time levels.

    Each d_t or Q consumes one level from each end of the stack.
    Returns the transformed (shorter) stack.
    """
    n_t, n_phi, n_q = word
    if n_t + n_phi + 2 * n_q > 3:
        raise DomainError("symmetry words above total order 3 are unsupported")
    stack = np.asarray(stack, dtype=complex)
    for _ in range(n_t):
        if stack.shape[0] < 3:
            raise DomainError("stack too short for the requested time derivatives")
        stack = (stack[2:] - stack[:-2]) / (2.0 * dt)
    stack = stack * (1j * grid.m_phi) ** n_phi
    for _ in range(n_q):
        stack = carter_q_stack(grid, stack, dt)
    return stack


def pointwise_norm(grid: WaveGrid, stack, dt, n: int):
    """|psi|_n^2 on the grid at the central level of the stack.

    Requires a stack of at least 2n+1 levels (5 for n = 2).
    """
    if n > 3:
        raise DomainError("pointwise norms above order 3 are unsupported")
    if n == 3:
        raise DomainError("order-3 word enumeration is not implemented")
    words_by_order = {0: S0_WORDS, 1: S1_WORDS, 2: S2_WORDS}
    stack = np.asarray(stack, dtype=complex)
    total = np.zeros_like(stack[0], dtype=float)
    for j in range(n + 1):
        for word in words_by_order[j]:
            res = symmetry_apply(grid, stack, dt, word)
            total += np.abs(res[res.shape[0] // 2]) ** 2
    return total


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def _slice_integral(grid: WaveGrid, density):
    """Integral over the slice with measure sin(theta) dr dtheta dphi.

    dr = (Delta / (r^2+a^2)) dr*; trapezoid in r*, midpoint in theta, 2 pi
    for the phi circle.
    """
    a = grid.params.a
    jac = (grid.delta / (grid.r**2 + a**2))[:, None] * grid.sin_theta[None, :]
    integrand = density * jac
    theta_sum = integrand.sum(axis=1) * grid.h_theta
    return 2.0 * math.pi * float(np.trapezoid(theta_sum, dx=grid.h_r))


def _word_derivatives(grid: WaveGrid, stack, dt):
    """First derivatives of every symmetry-differentiated field S psi, S in S_0..S_2.

    The composite quantities |d psi|_2^2 in the energy and bulk densities are
    evaluated with the symmetry word applied first: |d_x psi|_2^2 means
    sum_S |d_x (S psi)|^2.  The two orderings agree for the d_t / d_phi words
    and wherever Q commutes with the derivative; the derivative-first ordering
    is non-integrable at the poles for m_phi != 0 (Q hits the 1/sin^2 factor
    on a field that no longer vanishes there), so the word-first ordering is
    the one that keeps the continuum quantities finite.

    Yields (f, f_t, f_r, f_theta) at the central time level for each word;
    needs a stack of >= 7 levels.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.shape[0] < 7:
        raise DomainError("energy diagnostics need a 7-level stack")
    mid = stack.shape[0] // 2
    a = grid.params.a
    to_r = ((grid.r**2 + a**2) / grid.delta)[:, None]
    for word in S0_WORDS + S1_WORDS + S2_WORDS:
        # the levels each d_t or Q consumes per side, plus one for f_t
        k = word[0] + word[2] + 1
        ws = symmetry_apply(grid, stack[mid - k: mid + k + 1], dt, word)
        c = ws.shape[0] // 2
        f = ws[c]
        f_t = (ws[c + 1] - ws[c - 1]) / (2.0 * dt)
        yield f, f_t, to_r * d_rstar(grid, f), d_theta(grid, f)


def _densities(grid: WaveGrid, stack, dt):
    """The E_model,3 and Morawetz bulk densities on the grid, from one pass of
    _word_derivatives (see energy_model3 and morawetz_bulk)."""
    a = grid.params.a
    r = grid.r[:, None]
    w_t = ((grid.r**2 + a**2) ** 2 / grid.delta)[:, None]
    chi = cutoff_bump(grid.r, grid.params.m)[:, None]
    w_phi = grid.m_phi**2 / grid.sin_theta[None, :] ** 2
    energy = np.zeros((grid.n_r, grid.n_theta))
    bulk = np.zeros((grid.n_r, grid.n_theta))
    for f, f_t, f_r, f_th in _word_derivatives(grid, stack, dt):
        energy += (
            w_t * np.abs(f_t) ** 2
            + grid.delta[:, None] * np.abs(f_r) ** 2
            + np.abs(f_th) ** 2
            + w_phi * np.abs(f) ** 2
        )
        f2 = np.abs(f) ** 2
        angular = (np.abs(f_th) ** 2 + w_phi * f2) / r**2
        bulk += (
            (grid.delta[:, None] ** 2 / r**4) * np.abs(f_r) ** 2
            + f2 / r**2
            + chi / r * (np.abs(f_t) ** 2 + angular)
        )
    return energy, bulk


def energy_model3(grid: WaveGrid, stack, dt) -> float:
    """E_model,3: integral of
    ((r^2+a^2)^2/Delta)|d_t psi|_2^2 + Delta |d_r psi|_2^2 + |d_theta psi|_2^2
    + (1/sin^2)|d_phi psi|_2^2 over the slice (word-first ordering, see
    _word_derivatives)."""
    return _slice_integral(grid, _densities(grid, stack, dt)[0])


def morawetz_bulk(grid: WaveGrid, stack, dt) -> float:
    """Morawetz bulk density integrated over the slice:
    (Delta^2/r^4)|d_r psi|_2^2 + r^-2 |psi|_2^2
    + cutoff(r) r^-1 (|d_t psi|_2^2 + |angular gradient psi|_2^2),
    with |angular gradient f|^2 = r^-2 (|d_theta f|^2 + m^2/sin^2 |f|^2)
    and the word-first ordering of _word_derivatives."""
    return _slice_integral(grid, _densities(grid, stack, dt)[1])


# ---------------------------------------------------------------------------
# polarized stress and currents
# ---------------------------------------------------------------------------


def _metric_on_grid(grid: WaveGrid, name):
    """The Kerr form "g" or "ginv" on the grid, shape (4, 4, n_r, n_theta)."""
    form = _forms()[name](grid.params.m, grid.params.a, grid.r[:, None], grid.theta[None, :])
    return form.transpose(2, 3, 0, 1)


def _gradient4(grid: WaveGrid, stack3, dt):
    """Coordinate-basis gradient (d_t, d_r, d_theta, d_phi) f at the middle level."""
    stack3 = np.asarray(stack3, dtype=complex)
    f = stack3[1]
    a = grid.params.a
    dt1 = (stack3[2] - stack3[0]) / (2.0 * dt)
    dr1 = ((grid.r**2 + a**2) / grid.delta)[:, None] * d_rstar(grid, f)
    dth1 = d_theta(grid, f)
    dph1 = 1j * grid.m_phi * f
    return np.array([dt1, dr1, dth1, dph1])


def _stress_from_gradient(grid: WaveGrid, grad, g, ginv):
    """Scalar-field stress T_ab = Re(d_a f conj(d_b f)) - 1/2 g_ab |df|^2."""
    outer = np.real(np.einsum("axy,bxy->abxy", grad, grad.conj()))
    trace = np.real(np.einsum("abxy,axy,bxy->xy", ginv, grad, grad.conj()))
    return outer - 0.5 * g * trace[None, None]


def polarized_stress(grid: WaveGrid, stack, dt, word_a, word_b):
    """T_ab[S_a psi, S_b psi] = 1/4 (T[S_a psi + S_b psi] - T[S_a psi - S_b psi]).

    Returns an array of shape (4, 4, n_r, n_theta) at the central time level.
    """
    stack = np.asarray(stack, dtype=complex)
    fa = symmetry_apply(grid, stack, dt, word_a)
    fb = symmetry_apply(grid, stack, dt, word_b)
    # align lengths around the common center
    n = min(fa.shape[0], fb.shape[0])
    if n < 3:
        raise DomainError("stack too short for polarized stress")

    def center3(s):
        mid = s.shape[0] // 2
        return s[mid - 1: mid + 2]

    fa, fb = center3(fa), center3(fb)
    g, ginv = _metric_on_grid(grid, "g"), _metric_on_grid(grid, "ginv")
    gp = _gradient4(grid, fa + fb, dt)
    gm = _gradient4(grid, fa - fb, dt)
    return 0.25 * (
        _stress_from_gradient(grid, gp, g, ginv) - _stress_from_gradient(grid, gm, g, ginv)
    )


def assemble_current(grid: WaveGrid, stack, dt, coefficients):
    """J_a = sum over entries of T_ab[S_a psi, S_b psi] A^b.

    coefficients: iterable of (word_a, word_b, direction index 0..3,
    radial function of r).  Returns (J with shape (4, n_r, n_theta),
    interior-integrated divergence diagnostic).
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.shape[0] < 7:
        raise DomainError("assemble_current needs a 7-level stack for the divergence")
    mid = stack.shape[0] // 2

    def current_at(center):
        sub = stack[center - 2: center + 3]
        J = np.zeros((4, grid.n_r, grid.n_theta))
        for word_a, word_b, direction, radial in coefficients:
            T = polarized_stress(grid, sub, dt, word_a, word_b)
            amp = np.asarray(radial(grid.r), dtype=float)[:, None]
            J += T[:, direction] * amp
        return J

    J = current_at(mid)
    Jp = current_at(mid + 1)
    Jm = current_at(mid - 1)

    ginv = _metric_on_grid(grid, "ginv")
    sqrtg = grid.sigma * grid.sin_theta[None, :]

    def raise_idx(Jcov):
        return np.einsum("abxy,bxy->axy", ginv, Jcov)

    Ju, Jup, Jum = raise_idx(J), raise_idx(Jp), raise_idx(Jm)
    a = grid.params.a
    # div J = (1/sqrtg)[d_t(sqrtg J^t) + d_r(sqrtg J^r) + d_theta(sqrtg J^theta)];
    # the phi derivative of an e^{i m phi} bilinear vanishes identically.
    div = (sqrtg * Jup[0] - sqrtg * Jum[0]) / (2.0 * dt)
    div += ((grid.r**2 + a**2) / grid.delta)[:, None] * d_rstar(grid, sqrtg * Ju[1])
    div += d_theta(grid, sqrtg * Ju[2])
    div /= sqrtg

    # interior integral of the divergence (diagnostic); skip boundary cells
    interior = div[2:-2, :]
    jac = (grid.delta / (grid.r**2 + a**2))[2:-2, None] * grid.sin_theta[None, :]
    total = 2.0 * math.pi * float(np.sum(interior * jac) * grid.h_theta * grid.h_r)
    return J, total


# ---------------------------------------------------------------------------
# initial data families
# ---------------------------------------------------------------------------


def initial_data(grid: WaveGrid, family: str, center=30.0, width=6.0):
    """Three smooth data families used by the diagnostics suite.

    'gaussian-static': centered pulse, psi_t = 0;
    'gaussian-ingoing': same profile, approximately ingoing (psi_t = +d_rs psi);
    'gaussian-wide': broader pulse with a different angular profile.
    """
    rs = grid.rstar[:, None]
    sin = grid.sin_theta[None, :]
    cos = grid.cos_theta[None, :]
    m = abs(grid.m_phi)
    if family == "gaussian-static":
        ang = sin**m * (3.0 * cos**2 - 1.0 + (0.5 if m else 0.0))
        psi = np.exp(-((rs - center) ** 2) / width**2) * ang
        psi_t = np.zeros_like(psi)
    elif family == "gaussian-ingoing":
        ang = sin**m * cos
        psi = np.exp(-((rs - center) ** 2) / width**2) * ang
        psi_t = (-2.0 * (rs - center) / width**2) * psi  # = +d_rs psi
    elif family == "gaussian-wide":
        ang = sin**m * (1.0 + 0.3 * cos)
        psi = np.exp(-((rs - center) ** 2) / (2.0 * width) ** 2) * ang
        psi_t = np.zeros_like(psi)
    else:
        raise DomainError(f"unknown data family {family!r}")
    return np.asarray(psi, dtype=complex), np.asarray(psi_t, dtype=complex)
