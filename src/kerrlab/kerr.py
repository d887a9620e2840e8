"""Closed-form Kerr/Schwarzschild geometry in Boyer-Lindquist coordinates.

All closed forms (metric, Christoffel symbols and the geodesic acceleration
they give, Killing-Yano 2-form and its square, principal tetrad, Coulomb
test field) are derived symbolically ahead of time in `_derive`, which
needs sympy: each tensor expression is flattened, its identically zero
entries are dropped, and the remaining entries are lambdified together with
common-subexpression elimination into one flat kernel.  The kernels are
emitted to the generated module `_closed_forms.py` (`python -m
kerrlab._derive` rewrites it), so run time needs numpy only.  At first use
`_forms` scatters each kernel's entries into an array of the form's shape
and of the dtype the generated table records; `accel`, the acceleration,
also of the 4-velocity, keeps its list.  Every form runs its numpy kernel
and broadcasts over arrays of (r, theta), point axes leading.  Only accel,
which the geodesic right-hand side calls at one state tens of times per
integrator step, has a second path there: its kernel on Python floats
(see `_accel`).  The Killing-Yano sign is validated, not assumed:
`_ky_calibration` fails loudly unless the associated Killing field comes
out as +d/dt.

Conventions: signature (-,+,+,+); orientation eps_{t r theta phi} = +sqrt|g|;
tetrad inner products are quoted with respect to the reversed-signature
metric ghat = -g (the usual Newman-Penrose convention), under which
ghat(l,n) = 1, ghat(m, mbar) = -1 and ghat_ab = 2(l_(a n_b) - m_(a mbar_b)).
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CalibrationError, DomainError
from .tensors import (DOWN, UP, MetricData, TensorValue, _cov_fd, _covariant, _projector,
                      _stencil)

THETA_GUARD = 1e-6

T, R, TH, PH = 0, 1, 2, 3


@dataclass(frozen=True)
class KerrParams:
    """Black-hole mass and specific angular momentum in geometric units."""

    m: float
    a: float = 0.0

    def __post_init__(self):
        if self.m <= 0:
            raise DomainError("mass must be positive")
        if abs(self.a) >= self.m:
            raise DomainError(
                f"subextremality requires |a| < m, got a={self.a}, m={self.m}"
            )

    @property
    def r_plus(self):
        return self.m + math.sqrt(self.m**2 - self.a**2)

    @property
    def r_minus(self):
        return self.m - math.sqrt(self.m**2 - self.a**2)


@dataclass(frozen=True)
class BLPoint:
    """Boyer-Lindquist chart point restricted to the exterior region."""

    t: float
    r: float
    theta: float
    phi: float
    params: KerrParams

    def __post_init__(self):
        if self.r <= self.params.r_plus:
            raise DomainError(f"r={self.r} is not outside the horizon r+={self.params.r_plus}")
        if not (THETA_GUARD < self.theta < math.pi - THETA_GUARD):
            raise DomainError(f"theta={self.theta} violates the axis guard band")

    @property
    def coords(self):
        return np.array([self.t, self.r, self.theta, self.phi])


def _check_exterior(params: KerrParams, r, th):
    """Raise DomainError, as BLPoint does, unless every point (r, th) of two
    arrays of one shape lies outside the horizon and inside the axis guard
    band.  The points with the smallest r and the extreme thetas decide."""
    if r.size:
        BLPoint(0.0, r.min(), th.min(), 0.0, params)
        BLPoint(0.0, r.min(), th.max(), 0.0, params)


# ---------------------------------------------------------------------------
# compiled closed forms (generated ahead of time, scattered at first use)
# ---------------------------------------------------------------------------

# The globals of accel's twin on Python floats (see `_accel`).
_MATH_GLOBALS = {"cos": math.cos, "sin": math.sin, "sqrt": math.sqrt}


def _accel(kernel):
    """accel's form: its numpy kernel on arrays of states, and at one state
    (r a float, np.float64 included) its twin on Python floats: the kernel's
    code object under globals that bind cos, sin and sqrt to the `math`
    module's, 2-3 times faster than on numpy scalars with the same bits.
    Where the twin raises (Delta = 0, overflow) or an argument is not finite
    (NaN signs could differ), the numpy kernel runs on the state as
    np.float64 and returns inf/NaN, not an exception.
    """
    twin = types.FunctionType(kernel.__code__, _MATH_GLOBALS, kernel.__name__)

    def form(*args):
        if not isinstance(args[2], float):
            return kernel(*args)
        try:
            x = tuple(map(float, args))
            if math.isfinite(sum(x)):  # no inf or NaN (nor an overflowing sum)
                return twin(*x)
        except (ArithmeticError, ValueError):
            pass
        return kernel(*map(np.float64, args))

    return form


def _scatter(kernel, shape, idx, dtype):
    """The form (m, a, r, th) -> array of one generated kernel.

    The kernel returns the form's non-zero entries at the flat indices idx.
    m and a are scalars; r and theta are scalars or broadcastable arrays.
    The entries are scattered into a fresh array of the given dtype and of
    shape broadcast(r, th).shape + shape, broadcasting the constant ones: at
    one point, an array of the form's shape.
    """
    size = math.prod(shape)
    form_axes = range(len(shape))

    def form(m, a, r, th):
        vals = kernel(m, a, r, th)
        points = np.broadcast(m, a, r, th).shape
        out = np.zeros((size,) + points, dtype=dtype)
        for k, v in zip(idx, vals):
            out[k] = v
        # point axes first: result[..., i, j] is the form at every point
        return np.moveaxis(out.reshape(shape + points), form_axes, range(-len(shape), 0))

    return form


@lru_cache(maxsize=1)
def _forms():
    """name -> numeric callable (m, a, r, th) -> array, but for `accel`:
    (m, a, r, th, u0, u1, u2, u3) -> the list of a^c = -Gamma^c_ab u^a u^b,
    Python floats at one point (r a float) and arrays for arrays of states."""
    from ._closed_forms import FORMS

    forms = {name: _scatter(*entry) for name, entry in FORMS.items() if name != "accel"}
    forms["accel"] = _accel(FORMS["accel"][0])
    return forms


def _at(params: KerrParams, r, th, *names):
    """The named forms at the points (r, th), point axes leading."""
    forms = _forms()
    return [forms[name](params.m, params.a, r, th) for name in names]


# ---------------------------------------------------------------------------
# public geometry
# ---------------------------------------------------------------------------


def kerr_metric(params: KerrParams, p: BLPoint) -> MetricData:
    """Kerr metric, inverse, volume density and Christoffels at a point."""
    _check_point(params, p)
    g, ginv, sqrtg, gamma = _at(params, p.r, p.theta, "g", "ginv", "sqrtg", "gamma")
    return MetricData(g=TensorValue((DOWN, DOWN), g), g_inv=TensorValue((UP, UP), ginv),
                      sqrt_abs_det=float(sqrtg), christoffel=gamma)


def _check_point(params, p):
    if p.params != params:
        raise DomainError("point was constructed for different Kerr parameters")


@lru_cache(maxsize=32)
def _ky_calibration(params: KerrParams):
    """Validate the Killing-Yano ansatz for these parameters.

    Checks, at a reference exterior point: (a) vanishing symmetrized
    gradient of Y, (b) the conformal Killing-Yano residual, (c) the
    associated complex 1-form raising to +d/dt.  Raises CalibrationError if
    any check fails; Y is used as generated.
    """
    p = BLPoint(0.0, 3.0 * params.m + 1.0, 1.0, 0.3, params)
    # (c): xi must be +d/dt with vanishing imaginary part
    xi_up = np.matmul(*_at(params, p.r, p.theta, "ginv", "xi"))
    if np.max(np.abs(xi_up.imag)) > 1e-8:
        raise CalibrationError("xi is not real for a Killing-Yano normalized Y")
    if np.max(np.abs(xi_up.real - [1.0, 0.0, 0.0, 0.0])) > 1e-8:
        raise CalibrationError(f"xi does not calibrate to +d/dt: got {xi_up.real}")
    # (a) and (b): analytic Killing-Yano residual
    res = killing_yano_residual(params, p)
    if res > 1e-10:
        raise CalibrationError(f"Killing-Yano residual {res} too large")


def _analytic_nabla(params: KerrParams, r, th, name: str):
    """nabla_c T_ab of the named all-down closed form from its analytic
    partials 'd<name>', at the points (r, th), point axes leading."""
    T, gamma, dT = _at(params, r, th, name, "gamma", "d" + name)
    return _covariant(dT, gamma, T, (DOWN, DOWN))


def _fd_nabla(params: KerrParams, r, th, name: str, step: float):
    """nabla_c T_ab of the named all-down closed form by second-order central
    differences at the points (r, th), arrays of one shape: the form is
    sampled on the whole stencil in one call, after one domain check of
    every stencil point."""
    zero = np.zeros_like(r)
    pts = _stencil(np.stack([zero, r, th, zero], axis=-1), step, "d1")
    _check_exterior(params, pts[..., 1], pts[..., 2])
    [samples] = _at(params, pts[..., 1], pts[..., 2], name)
    [gamma] = _at(params, r, th, "gamma")
    return _cov_fd(samples, gamma, (DOWN, DOWN), step, "d1")


# The slots of nabla_c T_ab that the Killing equations nabla_(a Y_b)c = 0
# and nabla_(a K_bc) = 0 symmetrize.
_KILLING_SLOTS = {"Y": (-3, -2), "K": (-3, -2, -1)}


def _killing(params: KerrParams, r, th, name: str, step=None):
    """The Killing residual of the form Y or K at the points (r, th), point axes
    leading: max over a, b, c of |nabla_(a Y_b)c| or |nabla_(a K_bc)|, by
    analytic derivatives or, given a step, second-order central differences."""
    nabla = (_analytic_nabla(params, r, th, name) if step is None
             else _fd_nabla(params, r, th, name, step))
    return np.max(np.abs(_projector(nabla, _KILLING_SLOTS[name])), axis=(-3, -2, -1))


def _conformal_ky(params: KerrParams, r, th):
    """Conformal Killing-Yano residual of Y at the points (r, th)."""
    g, ginv = _at(params, r, th, "g", "ginv")
    nabla = _analytic_nabla(params, r, th, "Y")  # [..., c, a, b]
    # div_a = nabla_d Y_a{}^d = nabla_d Y_ac g^{cd}
    div = np.einsum("...dac,...cd->...a", nabla, ginv)
    lhs = _projector(nabla, _KILLING_SLOTS["Y"])
    # lhs[a,b,c] = nabla_(a Y_b)c; rhs from the conformal Killing-Yano equation
    rhs = (
        -np.einsum("...ab,...c->...abc", g, div) / 3.0
        + (np.einsum("...ac,...b->...abc", g, div) + np.einsum("...bc,...a->...abc", g, div)) / 6.0
    )
    return np.max(np.abs(lhs - rhs), axis=(-3, -2, -1))


def _one(p: BLPoint):
    """p as one-element (r, theta) arrays: a residual at one point then runs
    the arithmetic of a sweep over many points, bit for bit."""
    return np.array([p.r]), np.array([p.theta])


def killing_yano_residual(params: KerrParams, p: BLPoint) -> float:
    """max |nabla_(a Y_b)c| with analytic derivatives."""
    return _killing(params, *_one(p), "Y").item()


def conformal_ky_residual(params: KerrParams, p: BLPoint) -> float:
    """Residual of the conformal Killing-Yano equation for Y (analytic derivatives)."""
    return _conformal_ky(params, *_one(p)).item()


def killing_tensor_residual(params: KerrParams, p: BLPoint) -> float:
    """max |nabla_(a K_bc)| with analytic derivatives."""
    return _killing(params, *_one(p), "K").item()


def killing_yano_residual_fd(params: KerrParams, p: BLPoint, step=1e-3) -> float:
    """max |nabla_(a Y_b)c| with second-order central differences."""
    return _killing(params, *_one(p), "Y", step).item()


def killing_tensor_residual_fd(params: KerrParams, p: BLPoint, step=1e-3) -> float:
    """max |nabla_(a K_bc)| with second-order central differences."""
    return _killing(params, *_one(p), "K", step).item()


def xi_oneform(params: KerrParams, p: BLPoint) -> TensorValue:
    """Complex 1-form built from first derivatives of Y; real and equal to
    (d/dt)-flat for the calibrated Kerr Y."""
    _check_point(params, p)
    _ky_calibration(params)
    return TensorValue((DOWN,), *_at(params, p.r, p.theta, "xi"))


def _tetrad(params: KerrParams, r, th):
    """Tetrad legs (l, n, m, mbar), the worst of their normalization
    residuals, and the reconstruction residual max |ghat - 2(l_(a n_b) - m_(a mbar_b))|,
    at the points (r, th), point axes leading."""
    l, n, mv, g = _at(params, r, th, "l", "n", "m_vec", "g")
    mb = mv.conjugate()

    def ip(u, v):
        return np.einsum("...a,...ab,...b->...", u, g, v)

    normalization = np.max([
        abs(ip(l, l)),
        abs(ip(n, n)),
        abs(ip(mv, mv)),
        abs(ip(l, n) + 1.0),  # ghat(l,n) = 1
        abs(ip(mv, mb) - 1.0),  # ghat(m,mbar) = -1
    ], axis=0)
    # reconstruction against ghat = -g: lowered legs use ghat
    gh = -g
    l_d, n_d, m_d, mb_d = (np.einsum("...ab,...b->...a", gh, v) for v in (l, n, mv, mb))
    outer = lambda u, v: u[..., :, None] * v[..., None, :]
    recon = outer(l_d, n_d) + outer(n_d, l_d) - outer(m_d, mb_d) - outer(mb_d, m_d)
    return (l, n, mv, mb), normalization, np.max(np.abs(recon - gh), axis=(-2, -1))


def _principal_tetrad(params: KerrParams, r, th):
    """`_tetrad`'s legs at the points (r, th), its residuals checked to 1e-11
    at every point."""
    legs, normalization, reconstruction = _tetrad(params, r, th)
    worst = np.max(np.maximum(normalization, reconstruction))
    if worst > 1e-11:
        raise CalibrationError(f"tetrad normalization residual {worst} above 1e-11")
    return legs


def tetrad_reconstruction_residual(params: KerrParams, p: BLPoint) -> float:
    """max |ghat_ab - 2(l_(a n_b) - m_(a mbar_b))| with ghat = -g."""
    _check_point(params, p)
    return _tetrad(params, *_one(p))[2].item()


def random_exterior_points(params: KerrParams, n, rng, r_range=(None, None)):
    """Sample points at t = 0, uniformly in r, theta, phi over a safe
    exterior box (by default r_plus + 0.3 m < r < 12 m)."""
    r_lo = r_range[0] if r_range[0] is not None else params.r_plus + 0.3 * params.m
    r_hi = r_range[1] if r_range[1] is not None else 12.0 * params.m
    pts = []
    for _ in range(n):
        r = rng.uniform(r_lo, r_hi)
        th = rng.uniform(0.3, math.pi - 0.3)
        ph = rng.uniform(0.0, 2 * math.pi)
        rng.random()  # the draw of a time, kept so that each seed gives the same points
        pts.append(BLPoint(0.0, r, th, ph, params))
    return pts
