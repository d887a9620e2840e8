"""Fixed-azimuthal-mode scalar waves on the Kerr exterior.

The field psi(t, r*, theta) e^{i m_phi phi} is evolved on a uniform
(tortoise, polar-angle) lattice with a second-order leapfrog scheme.  The
module provides the reduced wave operator, the Carter operator Q, and the
densities of the model energy and of the Morawetz bulk integral with a
trapping cutoff, summed over the words of the second-order symmetry algebra.

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
Every difference quotient is an entry of the stencil table `kerrlab._stencils`:
with one-sided end rows in r*, parity ghosts in theta, interior time levels.

`_spatial` is read off once per grid into the five diagonals of its interior
rows (`_operator`).  A leapfrog step is one product L psi (`_product`: the
diagonals times the W, S, C, N and E neighbours, summed in that column order
in cache-sized blocks, complex data as (re, im) float pairs), scaled by dt^2
(times a diagonal f with the rotation term), plus the increment psi - psi_prev
(times a diagonal g), psi itself and the two Sommerfeld rows;
f = 1/(1 + dt i m_phi c5 / 2) is the centered implicit average
(`_step_factors`).  Without the rotation term (m_phi = 0 or a = 0) real data
stay real, and the evolver then steps in float64.  `evolve` refuses a run of
more than MAX_STEP_POINTS steps times grid points before its first step.

Time derivatives in diagnostics are always taken from a centered stack of
consecutive time levels (axis 0); the evolver bootstraps levels on both
sides of the report time (leapfrog is time-reversible) so that t = 0
reports are exact to the scheme's order.

The stack layer.  Every diagnostic takes its stack through `_stack` (one
array) or `_levels` (a list of its levels, uncopied), which keep real levels
float64 (complex ones complex) and refuse, with a DomainError naming the
caller, a stack shorter than the caller needs: each D (the centered d_t) and
each Q consumes one level per end.  The energy and bulk densities apply each
symmetry word of S_0..S_2 before the first derivatives (word-first ordering,
see `_densities`).  On a fixed mode d_phi is multiplication by i m_phi, so
the seven words reduce to four base fields, psi, D psi, D^2 psi and Q psi,
weighted 1 + m_phi^2 + m_phi^4, 1 + m_phi^2, 1 and 1 (`_base_weights`);
`_base_fields` forms them, one at a time, for `_densities`.  Slice
integrals use the measure `WaveGrid.measure`.

The report pass.  `evolve` samples (t, E_model,3, Morawetz bulk) at each
report time while it steps, by one `_densities` pass over its live 7-level
window: every level-sized result is formed in place in a `_Workspace`
allocated once per evolve, and every factor that depends on the grid alone
is a profile cached on the grid (`_profiles`).  Each difference, product
and sum is the one a stacked evaluation forms, in the same order, so the
reports do not depend on where the values are held.  After the last step
`evolve` accumulates the bulk by the trapezoid rule in time and forms the
`EnergyReport`s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._stencils import STENCILS, _diff, combine, require_normal
from .errors import DomainError, StabilityError
from .kerr import KerrParams

MAX_GRID_POINTS = 10**6  # n_r * n_theta of one grid (0.4 to 0.7 GB in a wave run)
MAX_STEP_POINTS = 10**10  # steps times n_r * n_theta of one evolve (minutes of work)
MAX_REPORTS = 10**4  # report passes of one evolve (criterion 4's evolves make 31)

# ---------------------------------------------------------------------------
# tortoise coordinate
# ---------------------------------------------------------------------------


def horizon_gap_from_tortoise(params: KerrParams, rstar):
    """rho = r - r_plus as a function of r*, solved by Newton in log(rho).

    Working in log space keeps the horizon approach (rho down to ~1e-300)
    well-conditioned; Delta should be reconstructed as rho*(rho + r+ - r-).
    All points iterate at once, each frozen where its own Newton stops; exp, log
    and the square are math's (numpy's differ in last bits), so rho is bit-exact.

    A point stops when its step falls below 1e-15 |u|.  Near extremality F
    cancels terms far larger than itself, and a point can swing forever by
    steps that lie within F's rounding yet above that bound.  So a point still
    moving after the last iteration is accepted where its next step lies within
    F's rounding floor, and refused otherwise.  Every other point takes the
    same iterations as under the first test alone.
    """
    rstar = np.atleast_1d(np.asarray(rstar, dtype=float))
    m, rp, rm = params.m, params.r_plus, params.r_minus
    A = 2 * m * rp / (rp - rm)
    B = 2 * m * rm / (rp - rm)
    libm = lambda f, x: np.fromiter(map(f, x.tolist()), float, x.size)

    def newton(u, s):
        """The Newton steps at u for the targets s, and a function that gives
        F's rounding floor there, in u: its four terms and three sums, and the
        arguments of the logs, of which (rho + r+) - r- cancels near extremality."""
        rho = libm(math.exp, u)
        r = rp + rho
        a_log = A * libm(math.log, rho / (2 * m))
        F = r + a_log - s
        b_log = 0.0
        if rm > 1e-14:
            b_log = B * libm(math.log, (rho + rp - rm) / (2 * m))
            F -= b_log
        dF = (libm(lambda v: v**2, r) + params.a**2) / (rho + rp - rm)
        return F / dF, lambda: 4 * np.finfo(float).eps / dF * (
            np.abs(r) + np.abs(a_log) + np.abs(b_log) + np.abs(s) + A + B * (rho + rp + rm) / (rho + rp - rm))

    # initial guess, in units of m: far field rho ~ s - rp, near field log rho ~ (s - rp)/A
    u = np.where(rstar > rp + m, libm(math.log, np.maximum(rstar - rp, 1e-3 * m)), (rstar - rp) / A)
    live = np.arange(rstar.size)
    for _ in range(100):
        step = newton(u[live], rstar[live])[0]
        u[live] -= step
        live = live[~(np.abs(step) < 1e-15 * np.maximum(1.0, np.abs(u[live])))]
        if not live.size:
            break
    else:
        step, floor = newton(u[live], rstar[live])
        unsettled = live[~(np.abs(step) <= floor())]
        if unsettled.size:
            raise DomainError(f"tortoise inversion did not converge at r*={rstar[unsettled[0]]}")
    out = libm(math.exp, u)
    return out if out.shape != (1,) else float(out[0])


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
        if n_r * n_theta > MAX_GRID_POINTS:
            raise DomainError(f"{n_r:.3g} x {n_theta:.3g} grid exceeds {MAX_GRID_POINTS} points")
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
        # dr/dr* = Delta/(r^2+a^2), the radial factor of `measure`
        self.dr_drstar = (delta / (r**2 + a**2))[:, None]

        # Lambda_theta face weights, both exactly 0 at the poles: sin(theta)
        # at the faces (conservative), and the mean of the two neighbouring
        # cell-centre sines, ghost cells included (trapezoid, Q's variant)
        faces = np.arange(n_theta + 1) * self.h_theta
        self.sin_face = np.sin(faces)
        theta_pad = np.concatenate([[-self.theta[0]], self.theta, [math.pi + self.theta[0]]])
        self.sin_face_trap = 0.5 * (np.sin(theta_pad[:-1]) + np.sin(theta_pad[1:]))
        self.parity = (-1.0) ** self.m_phi
        self.rotates = self.m_phi != 0 and a != 0
        self.imc = 1j * self.m_phi * self.c5 if self.rotates else 0.0  # coefficient of d_t psi
        self.edge_speed = [math.sqrt(float(np.max(self.c1[side]))) for side in (0, -1)]  # r* ends
        self._diagonals = self._diagonals_pair = None  # _operator's, built on first use
        self._rotation = {}  # _step_factors by step value
        self._profiles = None  # the report pass's grid factors, built on first use

    @property
    def measure(self):
        """The slice measure sin(theta) dr = (Delta/(r^2+a^2)) sin(theta) dr*,
        formed on each use: the grid keeps no (n_r, n_theta) copy of it."""
        return self.dr_drstar * self.sin_theta

    def max_wave_speed_sq(self):
        """Explicit-stability estimate: largest eigenvalue of the spatial operator."""
        lam = (
            4.0 * self.c1 / self.h_r**2
            + np.abs(self.c2) / self.h_r
            + 4.0 * self.c3 / self.h_theta**2
            + np.abs(self.c4)
        )
        return float(np.max(lam))


def _ghost_pad_theta(psi, parity, out=None):
    """Pad the theta (last) axis with reflection ghosts: psi(-theta) = parity * psi(theta),
    in `out` if given."""
    if out is None:
        out = np.empty(psi.shape[:-1] + (psi.shape[-1] + 2,), np.result_type(psi, parity))
    out[..., 1:-1] = psi
    np.multiply(parity, psi[..., :1], out=out[..., :1])
    np.multiply(parity, psi[..., -1:], out=out[..., -1:])
    return out


def _lambda_theta_flux(grid: WaveGrid, psi, face_weight, work=None, out=None):
    """(1/sin) d_theta (w d_theta psi) in flux form, w given at faces 0..n_theta;
    in `out` if given, and with a `_Workspace`'s pad and flux if given."""
    h = grid.h_theta
    pad, flux = (None, None) if work is None else (work.pad, work.flux)
    flux = _diff(_ghost_pad_theta(psi, grid.parity, pad), "d1_face", h, axis=-1, out=flux)
    flux *= face_weight
    return _diff(flux, "d1_face", h * grid.sin_theta, axis=-1, out=out)


def lambda_theta_conservative(grid: WaveGrid, psi):
    """(1/sin) d_theta (sin d_theta psi) in flux form (pole flux exactly zero)."""
    return _lambda_theta_flux(grid, psi, grid.sin_face)


def lambda_theta_trapezoid(grid: WaveGrid, psi, work=None, out=None):
    """Flux form of Lambda_theta with trapezoid-averaged face weights (Q's variant).

    The face coefficient is (sin theta_j + sin theta_{j+1})/2 over cell centers
    (ghost cells included), which vanishes identically at both poles by the
    oddness of sin, so the zero-pole-flux property is preserved.  The weight
    differs from the exact face value by O(h^2) * sin(theta_face), so the
    discrepancy with the conservative variant stays uniformly O(h^2) after
    division by sin(theta_j), including at the pole cells.
    """
    return _lambda_theta_flux(grid, psi, grid.sin_face_trap, work, out)


def d_rstar(grid: WaveGrid, psi, out=None):
    """Central first tortoise derivative (axis -2); one-sided second order at the ends."""
    return _diff(psi, "d1", grid.h_r, axis=-2, end="d1_end", out=out)


def d2_rstar(grid: WaveGrid, psi):
    return _diff(psi, "d2", grid.h_r, axis=-2, end="d2_end")


def d_theta(grid: WaveGrid, psi, work=None, out=None):
    pad = None if work is None else work.pad
    return _diff(_ghost_pad_theta(psi, grid.parity, pad), "d1", grid.h_theta, axis=-1, out=out)


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


def _operator(grid: WaveGrid, dtype=float):
    """`_spatial` on rows 1 .. n_r - 2 as its five diagonals, cached on the grid.

    A (5, (n_r - 2) n_theta) float64 array: at the flat interior index k, the
    coefficients W, S, C, N and E of x[k - n_theta], x[k - 1], x[k], x[k + 1]
    and x[k + n_theta], in column order.  Read off `_spatial` with 5 probes,
    cell (i, j) having colour (i + 2j) mod 5: the five cells of an interior
    cross have distinct colours, and a parity ghost folds onto its row's own
    cell, so S is 0 at j = 0 and N at j = n_theta - 1.  Rows 0 and n_r - 1
    take the Sommerfeld update in `_step` and are not read off.  For a complex
    dtype, a copy (also cached) with each entry repeated twice, which acts on
    the float64 view of the (re, im) pairs.
    """
    if grid._diagonals is None:
        colour = (np.arange(grid.n_r)[:, None] + 2 * np.arange(grid.n_theta)) % 5
        # one probe per call: a stacked call's temporaries raise the peak memory
        values = np.array([_spatial(grid, (colour == c).astype(float))[1:-1] for c in range(5)])
        i, j = np.indices(values.shape[1:])
        shift = np.array([-1, -2, 0, 2, 1])[:, None, None]  # colour of W, S, C, N, E less the row's
        grid._diagonals = values[(colour[1:-1] + shift) % 5, i, j].reshape(5, -1)
    if np.dtype(dtype).kind != "c":
        return grid._diagonals
    if grid._diagonals_pair is None:
        grid._diagonals_pair = np.repeat(grid._diagonals, 2, axis=1)
    return grid._diagonals_pair


_BLOCK = 32768  # floats per block of `_product`, 256 kB: its terms stay in cache


def _product(grid: WaveGrid, psi):
    """L psi, with L = `_spatial` on rows 1 .. n_r - 2, and rows 0 and n_r - 1 zero.

    On the flat interior, W x[k - n_theta], then + S x[k - 1], + C x[k],
    + N x[k + 1] and + E x[k + n_theta]: the terms of a CSR row product in its
    column order, so each sum rounds to the same float.  A wrapped neighbour
    at j = 0 or n_theta - 1 adds an exact 0 x.  Complex data are multiplied
    as (re, im) float pairs, in blocks of _BLOCK floats.
    """
    psi = np.asarray(psi, dtype=np.result_type(psi, float))
    diagonals = _operator(grid, psi.dtype)
    out = np.empty(psi.shape, psi.dtype)
    x, y = (a.reshape(-1).view(np.float64) for a in (psi, out))
    row = x.size // grid.n_r  # floats per r* row
    cell = row // grid.n_theta  # floats per value: 1 real, 2 complex
    y[:row] = y[-row:] = 0.0
    end = row + diagonals.shape[1]
    term = np.empty(min(_BLOCK, end - row))
    for lo in range(row, end, _BLOCK):  # [lo, hi): a block of the interior of x and y
        hi = min(lo + _BLOCK, end)
        west, *rest = diagonals[:, lo - row: hi - row]
        acc, t = y[lo:hi], term[:hi - lo]
        np.multiply(west, x[lo - row: hi - row], out=acc)
        for d, shift in zip(rest, (-cell, 0, cell, row)):
            np.multiply(d, x[lo + shift: hi + shift], out=t)
            acc += t
    return out


@dataclass
class ModeField2p1:
    """Field state: psi and psi_t on the grid at a given time.

    history, when present, is the (levels, dt) pair that `evolve` returns:
    its final window, a list of 7 consecutive psi levels, and its step.
    `psi` sits at levels[-4], i.e. the levels extend three steps past
    `time`; they are float64 when `evolve` stepped in real arithmetic.  A
    diagnostic reads the levels through the stack layer (`_stack`,
    `_levels`), which takes a list or an array.
    """

    grid: WaveGrid
    psi: np.ndarray
    psi_t: np.ndarray
    time: float = 0.0
    history: tuple = None  # ([L levels of shape (n_r, n_theta)], dt)

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


# ---------------------------------------------------------------------------
# stack operators (a stack is psi on consecutive time levels, axis 0)
# ---------------------------------------------------------------------------


def _depth(stack, k, who):
    """Refuse, with a DomainError naming the caller `who`, a stack of fewer than k levels."""
    if len(stack) < k:
        raise DomainError(f"{who} needs at least {k} time levels")


def _stack(stack, k, who):
    """The stack as one float (real data) or complex array of at least k levels."""
    stack = np.asarray(stack)
    _depth(stack, k, who)
    return np.asarray(stack, dtype=np.result_type(stack, float))


def _levels(stack, k, who):
    """The stack (an array, or a sequence of levels) as a list of at least k
    float (real data) or complex levels, none of them copied unless its
    dtype must change."""
    _depth(stack, k, who)
    levels = [np.asarray(level) for level in stack]
    dtype = np.result_type(*levels, float)
    return [level.astype(dtype, copy=False) for level in levels]


def _centered_dt(stack, dt):
    """D: the centered d_t of the interior levels."""
    return _diff(stack, "d1", dt)


def _dt_at(later, earlier, dt, out=None):
    """D at one level, from the levels one step later and one earlier; in `out` if given."""
    return combine([later, earlier], STENCILS["d1"], dt, out=out)


class _Workspace:
    """Buffers of one level shape and dtype, each allocated on first use and
    then reused: by `evolve` for all its reports.  `fields` holds the three
    base fields of `_base_fields`; `pad` (the ghost-padded level of d_theta and
    Lambda_theta) and `flux` (its n_theta + 1 face values) are the scratch of
    the derivatives and of Q; `sums` holds `_densities`' four sums."""

    def __init__(self, shape, dtype):
        self.shape, self.dtype = tuple(shape), np.dtype(dtype)

    @cached_property
    def fields(self):
        return [np.empty(self.shape, self.dtype) for _ in range(3)]

    @cached_property
    def pad(self):
        return np.empty(self.shape[:-1] + (self.shape[-1] + 2,), self.dtype)

    @cached_property
    def flux(self):
        return np.empty(self.shape[:-1] + (self.shape[-1] + 1,), self.dtype)

    @cached_property
    def sums(self):
        return np.empty((4,) + self.shape)

    def level(self, buf, dtype=None, k=None):
        """A level at the front of buf, or a stack of k, read as dtype if given."""
        flat = buf.reshape(-1) if dtype is None else buf.reshape(-1).view(dtype)
        shape = self.shape if k is None else (k,) + self.shape
        return flat[:math.prod(shape)].reshape(shape)


def _profiles(grid: WaveGrid):
    """The grid factors of Q and of the report densities as profiles, cached on
    the grid: in r*, w_t = (r^2+a^2)^2/Delta, ((r^2+a^2)/r^2)^2, r^2 and
    chi/r with the trapping cutoff chi; in theta, m_phi^2/sin^2 and a^2 sin^2."""
    if grid._profiles is None:
        a, r, sin2 = grid.params.a, grid.r, grid.sin_theta**2
        radial = {"w_t": (r**2 + a**2) ** 2 / grid.delta, "w_r": ((r**2 + a**2) / r**2) ** 2,
                  "r2": r**2, "chi_r": cutoff_bump(r, grid.params.m) / r}
        grid._profiles = {key: v[:, None] for key, v in radial.items()}
        grid._profiles.update(m2_sin2=grid.m_phi**2 / sin2, a2_sin2=a**2 * sin2)
    return grid._profiles


def sigma_box_stack(grid: WaveGrid, stack, dt):
    """Apply Sigma Box to a stack of time levels; consumes one level per end.

    Sigma Box = -(Pi/Delta) d_t^2 - (4 m a r / Delta) d_t d_phi
                + d_rs((r^2+a^2)^2/Delta d_rs) + 2r d_rs
                + Lambda_theta - m^2 (1/sin^2 - a^2/Delta),
    evaluated as (Pi/Delta)(_spatial - d_t^2 - i m_phi c5 d_t): the residual
    of the evolved equation in the normalization of Sigma Box.
    """
    stack = _stack(stack, 3, "sigma_box_stack")
    residual = (_spatial(grid, stack[1:-1]) - _diff(stack, "d2", dt)
                - grid.imc * _centered_dt(stack, dt))
    return (grid.Pi / grid.delta[:, None]) * residual


def box_stack(grid: WaveGrid, stack, dt):
    """Box psi = (Sigma Box psi) / Sigma on each retained level."""
    return sigma_box_stack(grid, stack, dt) / grid.sigma


def carter_q_stack(grid: WaveGrid, stack, dt, out=None, work=None):
    """Carter operator Q = Lambda_theta + (1/sin^2) d_phi^2 + a^2 sin^2 d_t^2.

    Uses the trapezoid-face theta stencil (see module docstring); consumes one
    level per end of the stack for the centered d_t^2.  Q is applied one level
    at a time, each written into `out` (a new stack, or the given level
    buffers), with a `_Workspace`'s pad and flux as scratch.
    """
    levels = _levels(stack, 3, "carter_q_stack")
    if out is None:
        out = np.empty((len(levels) - 2,) + levels[0].shape, levels[0].dtype)
    work = _Workspace(levels[0].shape, levels[0].dtype) if work is None else work
    factors = _profiles(grid)
    term = work.level(work.pad)  # free once Lambda_theta is formed
    for q, prev, psi, nxt in zip(out, levels, levels[1:], levels[2:]):
        lambda_theta_trapezoid(grid, psi, work, out=q)
        q -= np.multiply(factors["m2_sin2"], psi, out=term)
        d2 = combine([nxt, psi, prev], STENCILS["d2"], dt, out=term)
        q += np.multiply(factors["a2_sin2"], d2, out=term)
    return out


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def _step_factors(grid: WaveGrid, dt):
    """(s, g, w) of one step value: psi + s (L psi) + g (psi - psi_prev) is
    the leapfrog update, rotation term included, and w weighs the Sommerfeld
    rows.

    s = f dt^2 and g = f (1 - h), where f = 1/(1 + h) = (1 - h)/(1 + |h|^2)
    and h = dt imc / 2 on a rotating grid; s = dt^2 and g = None (1) on any
    other.  s scales the rows of the product, not the entries of L: a
    rounded entry would no longer cancel its row's others on smooth data.
    Kept for two step values, the +dt and -dt of an evolve.
    """
    if dt not in grid._rotation:
        if len(grid._rotation) == 2:
            grid._rotation.clear()
        scale, g = dt**2, None
        if grid.rotates:
            half = 0.5 * dt * grid.imc
            f = (1.0 - half) * (1.0 / (1.0 + half.imag**2))
            scale, g = dt**2 * f, f * (1.0 - half)
        # Sommerfeld rows, outgoing d_t psi = +/- sqrt(c1) d_rs psi by the end
        # rule e (d_rstar's) and a trapezoidal update: at the edge row with inner
        # rows i1, i2, new_e = w0 psi_e + w1 (psi + new)_i1 - w2 (psi + new)_i2
        _, (e0, e1, e2), c, _ = STENCILS["d1_end"]
        k = 0.5 / c * dt / grid.h_r * np.array(grid.edge_speed)[:, None]
        w = np.array([1.0 + e0 * k, e1 * k, -e2 * k]) / (1.0 - e0 * k)
        grid._rotation[dt] = (scale, g, w)
    return grid._rotation[dt]


_EDGE, _INNER = [0, -1], [1, -2, 2, -3]  # edge rows, then their first and second inner rows


def _step(grid: WaveGrid, psi_prev, psi, dt):
    """One leapfrog step: returns psi at t + dt, in the dtype of psi.

    One product with `_operator`'s five diagonals, in column order and in
    blocks (`_product`); the first-order rotation term, if any, is treated
    with a centered implicit average, which for the diagonal i*m*c5
    coefficient scales each row (`_step_factors`).  The increment s (L psi) + g (psi - psi_prev) is
    summed before psi is added, so that a step rounds once at the size of
    psi (psi - psi_prev is exact where the levels lie within a factor 2 of
    each other).  Rows 0 and n_r - 1 take the Sommerfeld update.
    """
    scale, g, w = _step_factors(grid, dt)
    new = _product(grid, psi)
    new *= scale
    delta = psi - psi_prev
    if g is not None:
        delta *= g
    new += delta
    new += psi
    near = psi[_INNER] + new[_INNER]
    new[_EDGE] = w[0] * psi[_EDGE] + w[1] * near[:2] - w[2] * near[2:]
    return new


def _bootstrap_prev(grid, psi, psi_t, dt):
    """Second-order accurate psi(t - dt) from Cauchy data via a Taylor start."""
    rhs = _spatial(grid, psi) - grid.imc * psi_t
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
    every report_dt of coordinate time (default: 8 report times total), at
    most MAX_REPORTS of them; each is one `_densities` pass over the live
    7-level window centred on its time, in report buffers allocated once per
    evolve.  The ratio column is bulk_cumulative / e_model3(t=0).

    The returned field's history is (levels, dt): the final 7-level window,
    the list of levels itself, handed over without a copy.

    Without the rotation term (grid.rotates false) and with real data, the
    levels and the returned history are float64, otherwise complex; the
    returned field is complex either way.
    """
    if not (0.0 < cfl < 1.0):
        raise DomainError("cfl must lie in (0, 1)")
    grid = field.grid
    dt = cfl * 2.0 / math.sqrt(grid.max_wave_speed_sq())
    require_normal("the stable time step", dt)  # t_end / dt
    if not t_end / dt * grid.n_r * grid.n_theta <= MAX_STEP_POINTS:  # inf and NaN included
        raise DomainError(f"an evolve to t = {t_end:.3g} in steps of {dt:.3g} on {grid.n_r} x "
                          f"{grid.n_theta} points exceeds {MAX_STEP_POINTS:.0e} step-points")
    n_steps = max(int(math.ceil(t_end / dt)), 5)
    dt = t_end / n_steps
    require_normal("the time step dt", dt, 2)  # the d2 stencils divide by dt^2
    if report_dt is None:
        report_dt = t_end / 8.0
    report_stride = max(int(round(min(report_dt, t_end) / dt)), 1)  # past t_end: at 0 and t_end
    n_reports = -(-n_steps // report_stride) + 1  # centres 0, stride, 2 stride, ... and n_steps
    if diagnostics and n_reports > MAX_REPORTS:
        raise DomainError(f"an evolve to t = {t_end:.3g} reporting every {report_stride} x "
                          f"{dt:.3g} makes {n_reports} reports, more than {MAX_REPORTS}")

    # build levels at t = -3dt .. +3dt around t=0 (leapfrog is reversible);
    # diagnostics need 3 extra levels on each side of a report time
    real = not grid.rotates and not (field.psi.imag.any() or field.psi_t.imag.any())
    psi0, psi_t = ((x.real if real else x).copy() for x in (field.psi, field.psi_t))
    levels = [_bootstrap_prev(grid, psi0, psi_t, dt), psi0, _bootstrap_prev(grid, psi0, psi_t, -dt)]
    del psi0, psi_t  # the window alone holds levels
    for _ in range(2):
        levels.insert(0, _step(grid, levels[1], levels[0], -dt))
        levels.append(_step(grid, levels[-2], levels[-1], dt))

    # march a rolling 7-level window whose centre levels[3] sits at center * dt,
    # and sample (t, E, B) at each report time from the live levels, in one
    # set of buffers
    samples, work = [], _Workspace(levels[3].shape, levels[3].dtype)
    for center in range(n_steps + 1):
        if center:
            new = _step(grid, levels[-2], levels[-1], dt)
            if not np.all(np.isfinite(new)):
                raise StabilityError(f"NaN/Inf at step {center + 3}")
            levels.append(new)
            levels.pop(0)
        if diagnostics and (center % report_stride == 0 or center == n_steps):
            e, b = (_slice_integral(grid, d) for d in _densities(grid, levels, dt, work))
            samples.append((center * dt, e, b))

    # the reports: the bulk accumulated by the trapezoid rule in time, and
    # its ratio to the first energy
    reports, bulk_cum = [], 0.0
    e0 = samples[0][1] if samples and samples[0][1] > 0 else 1.0
    for k, (t, e, b) in enumerate(samples):
        if k:
            t_last, _, b_last = samples[k - 1]
            bulk_cum += 0.5 * (b + b_last) * (t - t_last)
        reports.append(EnergyReport(time=t, e_model3=e, bulk_increment=b,
                                    bulk_cumulative=bulk_cum, ratio=bulk_cum / e0))

    # final state at t_end = n_steps * dt sits at the window center
    del work
    out = ModeField2p1(grid=grid, psi=levels[-4], psi_t=_dt_at(levels[-3], levels[-5], dt),
                       time=n_steps * dt, history=(levels, dt))
    return out, reports


# ---------------------------------------------------------------------------
# the base fields of the report densities
# ---------------------------------------------------------------------------


def _base_weights(m_phi):
    """Weights of psi, D psi, D^2 psi and Q psi in sum_S |S f|^2 over the seven
    words of S_0..S_2: d_phi is i m_phi, so psi stands for the words 1, d_phi
    and d_phi^2, D psi for d_t and d_t d_phi, D^2 psi for d_t^2 and Q psi for Q."""
    m2 = float(m_phi) ** 2
    return [1.0 + m2 + m2 * m2, 1.0 + m2, 1.0, 1.0]


def _sq(x, out):
    """|x|^2 elementwise in out[0]: x*x for real x, re^2 + im^2 (no square
    root) for complex x, with out[1] as the scratch of im^2."""
    if not np.iscomplexobj(x):
        return np.multiply(x, x, out=out[0])
    return np.add(np.square(x.real, out=out[0]), np.square(x.imag, out=out[1]), out=out[0])


def _base_fields(grid: WaveGrid, s, dt, work):
    """Yield (f, f_t) for the base fields f of `_base_weights` at the central
    level s[3] of seven levels s: psi, D psi, D^2 psi and Q psi, each with its
    centred d_t f_t: the next field for psi and D psi, D^3 psi for D^2 psi,
    and the D of Q psi on the levels either side.

    The fields are formed in `work`'s three field buffers (and, for D^3 psi,
    its flux), so a pair holds only until the next one is drawn.
    """
    f1, f2, f3 = work.fields
    _dt_at(s[4], s[2], dt, f1)  # D psi
    yield s[3], f1
    # D^2 psi, from D psi one level either side
    _dt_at(_dt_at(s[5], s[3], dt, f3), _dt_at(s[3], s[1], dt, f2), dt, f2)
    yield f1, f2
    # D^3 psi, from D^2 psi one level either side (over D psi)
    above = _dt_at(_dt_at(s[6], s[4], dt, f3), f1, dt, f3)
    below = _dt_at(f1, _dt_at(s[2], s[0], dt, work.level(work.flux)), dt, f1)
    _dt_at(above, below, dt, f1)
    yield f2, f1
    below, q, above = carter_q_stack(grid, s[1:6], dt, out=work.fields, work=work)
    yield q, _dt_at(above, below, dt, below)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def _slice_integral(grid: WaveGrid, density):
    """Integral over the slice with measure sin(theta) dr dtheta dphi.

    dr = (Delta / (r^2+a^2)) dr* (`WaveGrid.measure`); trapezoid in r*,
    midpoint in theta, 2 pi for the phi circle.
    """
    integrand = grid.measure
    integrand *= density
    theta_sum = integrand.sum(axis=1) * grid.h_theta
    return 2.0 * math.pi * float(np.trapezoid(theta_sum, dx=grid.h_r))


def _densities(grid: WaveGrid, stack, dt, work=None):
    """The E_model,3 and Morawetz bulk densities on the grid, at the central
    level of a stack of >= 7 levels.  Their slice integrals (`_slice_integral`)
    are the model energy

        E_model,3 = int ((r^2+a^2)^2/Delta)|d_t psi|_2^2 + Delta |d_r psi|_2^2
                        + |d_theta psi|_2^2 + (1/sin^2)|d_phi psi|_2^2

    and the Morawetz bulk

        int (Delta^2/r^4)|d_r psi|_2^2 + r^-2 |psi|_2^2
            + cutoff(r) r^-1 (|d_t psi|_2^2 + |angular gradient psi|_2^2),

    with |angular gradient f|^2 = r^-2 (|d_theta f|^2 + m^2/sin^2 |f|^2).

    The composite quantities |d_x psi|_2^2 are evaluated with the symmetry
    word applied first: |d_x psi|_2^2 means sum_S |d_x (S psi)|^2 over the
    words S of S_0..S_2.  The two orderings agree for the d_t / d_phi words
    and wherever Q commutes with the derivative; the derivative-first
    ordering is non-integrable at the poles for m_phi != 0 (Q hits the
    1/sin^2 factor on a field that no longer vanishes there), so the
    word-first ordering is the one that keeps the continuum quantities finite.

    The sums run over the four base fields of `_base_weights`, drawn one at a
    time with their d_t from `_base_fields`.  The stack's levels are read in
    place (a list of levels is not stacked), and every level-sized result is
    formed in the buffers of `work` (a `_Workspace` of the levels' shape and
    dtype), so one pass holds about 7 levels' worth of complex data, or 9 of
    real data; the two densities returned live there too, until the next pass
    with the same `work`.
    """
    levels = _levels(stack, 7, "_densities")
    levels = levels[len(levels) // 2 - 3: len(levels) // 2 + 4]  # the central seven
    work = _Workspace(levels[0].shape, levels[0].dtype) if work is None else work
    # sums over words of |f|^2, |d_t f|^2, |d_r* f|^2 and |d_theta f|^2
    f2, ft2, fr2, fth2 = sums = work.sums
    sums.fill(0.0)
    scratch = work.level(work.flux)
    # |x|^2 (and im^2) in the pad's floats, which no derivative holds while squared
    sq = work.level(work.pad, np.float64, 2 if work.dtype.kind == "c" else 1)

    def add(total, x, w):  # total += w |x|^2
        total += np.multiply(w, _sq(x, sq), out=sq[0])

    pairs = _base_fields(grid, levels, dt, work)
    for w, (f, f_t) in zip(_base_weights(grid.m_phi), pairs):
        add(f2, f, w)
        add(ft2, f_t, w)
        add(fr2, d_rstar(grid, f, out=scratch), w)
        add(fth2, d_theta(grid, f, work, out=scratch), w)

    # Delta |d_r f|^2 = w_t |d_r* f|^2, as d_r = ((r^2+a^2)/Delta) d_r*; each
    # factor is a cached profile, and each product and sum is formed in place
    factors = _profiles(grid)
    angular = fth2
    angular += np.multiply(factors["m2_sin2"], f2, out=sq[0])
    energy = np.add(ft2, fr2, out=work.level(work.fields[0], np.float64))
    energy *= factors["w_t"]
    energy += angular
    bulk = fr2
    bulk *= factors["w_r"]
    bulk += np.divide(f2, factors["r2"], out=f2)
    angular /= factors["r2"]
    ft2 += angular
    bulk += np.multiply(factors["chi_r"], ft2, out=ft2)
    return energy, bulk


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
    # a squared distance beyond double precision is inf, where the pulse
    # exp(-inf) = 0 takes its limit value
    with np.errstate(over="ignore"):
        dist2 = (rs - center) ** 2
    if family == "gaussian-static":
        ang = sin**m * (3.0 * cos**2 - 1.0 + (0.5 if m else 0.0))
        psi = np.exp(-dist2 / width**2) * ang
        psi_t = np.zeros_like(psi)
    elif family == "gaussian-ingoing":
        ang = sin**m * cos
        psi = np.exp(-dist2 / width**2) * ang
        psi_t = (-2.0 * (rs - center) / width**2) * psi  # = +d_rs psi
    elif family == "gaussian-wide":
        ang = sin**m * (1.0 + 0.3 * cos)
        psi = np.exp(-dist2 / (2.0 * width) ** 2) * ang
        psi_t = np.zeros_like(psi)
    else:
        raise DomainError(f"unknown data family {family!r}")
    return np.asarray(psi, dtype=complex), np.asarray(psi_t, dtype=complex)
