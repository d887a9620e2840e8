"""Test Maxwell fields on Kerr and the hidden-symmetry conserved tensor V_ab.

Ships the stationary Coulomb-type closed-form field (validated against the
Maxwell divergence residual before being trusted) and computes, at arbitrary
exterior points: Newman-Penrose scalars, the stress tensor, the 2-form
Z_ab = -(4/3)(*F)_[a^c Y_b]c, the complex current eta_a, and the symmetric
conserved tensor V_ab together with a nested-finite-difference residual of
its conservation law.

A field is an array callable: chart points pts[..., 4] go in, the real
field strength F[..., 4, 4] comes out.  A nested stencil is sampled once:
the field at all of its points in one call, checked over the whole array,
and the geometry in one broadcasting closed-form call per quantity; the
rest is array arithmetic over the leading point axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import CalibrationError, DomainError
from .kerr import (
    BLPoint,
    KerrParams,
    _at,
    _check_exterior,
    _eval,
    _ky_calibration,
    coulomb_F_unit,
    kerr_metric,
    killing_yano,
    random_exterior_points,
    uniform_F_unit,
)
from .tensors import (DOWN, UP, TensorValue, _cov_fd, _fd_rule, _hodge, _partial_fd,
                      _stencil, hodge_dual2)


def _check_antisymmetric(F):
    """Raise ValueError unless F[..., a, b] is antisymmetric at every point,
    to 1e-13 times max(1, max |F|) at that point."""
    skew = np.max(np.abs(F + np.swapaxes(F, -1, -2)), axis=(-2, -1))
    if np.any(skew > 1e-13 * np.maximum(1.0, np.max(np.abs(F), axis=(-2, -1)))):
        raise ValueError("field strength is not antisymmetric")


@dataclass(frozen=True)
class MaxwellSample:
    """Antisymmetric real field strength at a single exterior point."""

    F: TensorValue
    point: BLPoint
    provenance: str = "user"

    def __post_init__(self):
        if self.F.variance != (DOWN, DOWN):
            raise ValueError("field strength must be a down-down 2-form")
        _check_antisymmetric(self.F.components)


@dataclass(frozen=True)
class CurrentReport:
    """Hidden-symmetry current data and the conservation residual at a point."""

    Z: TensorValue
    eta: TensorValue
    V: TensorValue
    div_V_residual: float
    fd_step: float


def _coulomb_F(params, pts):
    """Unit-charge Coulomb field strength at chart points pts[..., 4]."""
    return _at(params, pts[..., 1], pts[..., 2], "F_coulomb")[0]


def _uniform_F(params, pts):
    """Unit-strength uniform-field Maxwell solution at chart points pts[..., 4]."""
    return _at(params, pts[..., 1], pts[..., 2], "F_uniform")[0]


def _field(params, F_field, pts):
    """F_field at chart points pts[..., 4] in one call, checked at every
    point: the point is exterior and off the axis (DomainError, as for a
    BLPoint), and the value is a finite antisymmetric 4 x 4 array
    (ValueError)."""
    _check_exterior(params, pts[..., 1], pts[..., 2])
    F = np.asarray(F_field(pts))
    if F.shape != pts.shape[:-1] + (4, 4):
        raise ValueError(f"field strength has shape {F.shape}, expected {pts.shape[:-1] + (4, 4)}")
    if not np.all(np.isfinite(F)):
        raise ValueError("field strength has non-finite components")
    _check_antisymmetric(F)
    return F


def _divergence(params, F_field, centres, step, order):
    """max_b |nabla^a F_ab| at each of the chart points centres[n, 4], from the
    field on the stencil of every centre (one call) and ginv, gamma at the
    centres (one broadcasting closed-form call each)."""
    offsets, weights = _fd_rule(order)
    F = _field(params, F_field, _stencil(centres, step, offsets))
    ginv, gamma = _at(params, centres[..., 1], centres[..., 2], "ginv", "gamma")
    nabla = _cov_fd(F, gamma, (DOWN, DOWN), step, weights)
    return np.max(np.abs(np.einsum("...ca,...cab->...b", ginv, nabla)), axis=-1)


# field -> (label, pts -> F given params, point seed, tolerance at the finer
# step, residual below which the coarser step counts as converged)
_CALIBRATIONS = {
    "coulomb": ("Coulomb", _coulomb_F, 1234, 1e-6, 1e-10),
    "uniform": ("uniform-field", _uniform_F, 4321, 1e-5, 1e-9),
}


@lru_cache(maxsize=64)
def _calibration(params: KerrParams, field: str):
    """Validate a closed-form field: the Maxwell divergence residual must
    converge to zero under step refinement at a spread of exterior points."""
    label, F, seed, tol, floor = _CALIBRATIONS[field]
    F_field = partial(F, params)
    rng = np.random.default_rng(seed)
    pts = random_exterior_points(params, 5, rng, r_range=(None, 10.0 * params.m))
    centres = np.array([p.coords for p in pts])
    residuals = zip(_divergence(params, F_field, centres, 1e-2, 4),
                    _divergence(params, F_field, centres, 5e-3, 4))
    for p, (res_h, res_h2) in zip(pts, residuals):
        if not (res_h2 <= tol and (res_h2 < res_h or res_h < floor)):
            raise CalibrationError(
                f"{label} ansatz failed Maxwell validation at {p.coords}: {res_h} -> {res_h2}"
            )
    return True


def coulomb_field(params: KerrParams, q: float, p: BLPoint) -> MaxwellSample:
    """Stationary Coulomb-type Maxwell field of charge q (F = dA closed by
    construction)."""
    _calibration(params, "coulomb")
    F = q * coulomb_F_unit(params, p)
    return MaxwellSample(TensorValue((DOWN, DOWN), F), p, provenance="coulomb")


def uniform_field(params: KerrParams, b: float, p: BLPoint) -> MaxwellSample:
    """Uniform-magnetic-field Maxwell test solution of strength b.

    Unlike the Coulomb field this one is not aligned with the principal null
    directions, so it produces nonzero Z, eta and V."""
    _calibration(params, "uniform")
    F = b * uniform_F_unit(params, p)
    return MaxwellSample(TensorValue((DOWN, DOWN), F), p, provenance="uniform")


def maxwell_divergence_residual(params, F_field, p: BLPoint, step=1e-3, order=4) -> float:
    """max_b |nabla^a F_ab| at p for a field (pts[..., 4] -> F[..., 4, 4])."""
    return float(_divergence(params, F_field, p.coords[None], step, order)[0])


def np_scalars(sample: MaxwellSample, tetrad):
    """Newman-Penrose components (phi0, phi1, phi2) and Upsilon = (r - ia cos theta)^2 phi1.

    For a source-free field aligned with the principal null directions
    (phi0 = phi2 = 0), Upsilon is constant over the exterior.
    """
    l, n, mv, mb = (x.components for x in tetrad)
    F = sample.F.components

    def c(u, v):
        return u @ F @ v

    phi0 = c(l, mv)
    phi1 = 0.5 * (c(l, n) + c(mb, mv))
    phi2 = c(mb, n)
    p = sample.point
    upsilon = (p.r - 1j * p.params.a * np.cos(p.theta)) ** 2 * phi1
    return complex(phi0), complex(phi1), complex(phi2), complex(upsilon)


def stress_tensor(sample: MaxwellSample) -> TensorValue:
    """T_ab = F_ac F_b^c - (1/4) F_cd F^cd g_ab (symmetric, traceless)."""
    params = sample.point.params
    g = _eval("g", params, sample.point)
    ginv = _eval("ginv", params, sample.point)
    F = sample.F.components.real
    Fup = np.einsum("ac,bd,cd->ab", ginv, ginv, F)  # F^{ab}
    invariant = np.einsum("ab,ab->", F, Fup)
    T = np.einsum("ac,cd,bd->ab", F, ginv, F)  # F_ac F_b{}^c
    T -= 0.25 * invariant * g
    return TensorValue((DOWN, DOWN), T)


def _Z(starF, ginv, Y):
    """Z_ab = -(4/3) (*F)_[a^c Y_b]c over leading point axes."""
    M = np.einsum("...ad,...dc,...bc->...ab", starF, ginv, Y)  # (*F)_a{}^c Y_bc
    return -(2.0 / 3.0) * (M - np.swapaxes(M, -1, -2))


def Z_form(sample: MaxwellSample, metric=None) -> TensorValue:
    """Z_ab = -(4/3) (*F)_[a^c Y_b]c with the calibrated Killing-Yano form.

    metric, when given, is the Kerr metric at the sample's point."""
    params = sample.point.params
    if metric is None:
        metric = kerr_metric(params, sample.point)
    starF = hodge_dual2(sample.F, metric).components
    Y = killing_yano(params, sample.point).components.real
    return TensorValue((DOWN, DOWN), _Z(starF, metric.g_inv.components.real, Y))


def _leading(eta, g, ginv):
    """eta_(a etabar_b) - 1/2 g_ab eta.etabar over leading point axes."""
    outer = eta[..., :, None] * eta.conj()[..., None, :]
    norm = np.einsum("...a,...ab,...b->...", eta, ginv, eta.conj())
    return 0.5 * (outer + np.swapaxes(outer, -1, -2)) - 0.5 * g * norm[..., None, None]


def _sample(params, F_field, pts):
    """F and the geometry on chart points pts[..., 4].

    The field is one checked call (_field); g, ginv, sqrtg, gamma, Y and xi
    come from one broadcasting closed-form call each.  Returns
    (F, {name: array}), point axes leading.
    """
    F = _field(params, F_field, pts)
    names = ("g", "ginv", "sqrtg", "gamma", "Y", "xi")
    geo = dict(zip(names, _at(params, pts[..., 1], pts[..., 2], *names)))
    geo["Y"] = _ky_calibration(params) * geo["Y"]
    return F, geo


def _eta(F, geo, step, weights):
    """Z, *F and eta_a = nabla_b (Z + i *Z)_a^b from samples on a stencil
    (stencil axis just before the slot axes); eta at the stencil centres."""
    ginv, sqrtg = geo["ginv"], geo["sqrtg"]
    starF = _hodge(F, ginv, sqrtg)
    Z = _Z(starF, ginv, geo["Y"])
    W = np.einsum("...ac,...cb->...ab", Z + 1j * _hodge(Z, ginv, sqrtg), ginv)  # W_a{}^b
    nabla = _cov_fd(W, geo["gamma"][..., 0, :, :, :], (DOWN, UP), step, weights)
    return Z, starF, np.einsum("...bab->...a", nabla)


def eta_oneform(params: KerrParams, F_field, p: BLPoint, step=1e-3, order=2) -> TensorValue:
    """eta_a = nabla_b Z_a^b + i nabla_b (*Z)_a^b by covariant finite differences."""
    offsets, weights = _fd_rule(order)
    F, geo = _sample(params, F_field, _stencil(p.coords, step, offsets))
    return TensorValue((DOWN,), _eta(F, geo, step, weights)[2])


def _lie(X, F, step, weights):
    """(L_X F)_ab = X^c d_c F_ab + F_cb d_a X^c + F_ac d_b X^c at the stencil
    centres, from samples X[..., s, a] and F[..., s, a, b] on a stencil."""
    dX = _partial_fd(X, step, weights, 1)  # [..., c, a] = d_c X^a
    dF = _partial_fd(F, step, weights, 2)
    X0, F0 = X[..., 0, :], F[..., 0, :, :]
    return (np.einsum("...c,...cab->...ab", X0, dF)
            + np.einsum("...ac,...cb->...ab", dX, F0)
            + np.einsum("...bc,...ac->...ab", dX, F0))


def _coupling(L, Z, g, ginv):
    """(1/3) L_(a^c Z_b)c - (1/12) g_ab L^{cd} Z_cd over leading point axes."""
    M = np.einsum("...ad,...dc,...bc->...ab", L, ginv, Z)
    scalar = np.einsum("...ab,...ac,...bd,...cd->...", L, ginv, ginv, Z)
    return 0.5 * (M + np.swapaxes(M, -1, -2)) / 3.0 - g * scalar[..., None, None] / 12.0


def V_tensor(params: KerrParams, F_field, p: BLPoint, step=1e-3) -> CurrentReport:
    """Conserved symmetric tensor V_ab and its divergence residual.

    V_ab = eta_(a etabar_b) - (1/2) g_ab eta.etabar
           - (1/3)(L_{Re xi}F)_(a^c Z_b)c + (1/12) g_ab (L_{Re xi}F)^{cd} Z_cd
           + (1/3)(L_{Im xi}*F)_(a^c Z_b)c - (1/12) g_ab (L_{Im xi}*F)^{cd} Z_cd

    The divergence max_b |nabla^a V_ab| uses Richardson-extrapolated central
    differences at the outer layer; the nested eta layer uses the same step.
    F_field maps chart points pts[..., 4] to F[..., 4, 4]; it is called once,
    on all 17 x 9 points of the nested stencil, and the rest is array
    arithmetic over the (outer, inner) point axes.  V is quadratic in the
    field, so a field too strong for V or its divergence to be finite in
    float64 raises OverflowError.
    """
    # The outer layer differentiates a field that itself carries O(step^2)
    # inner truncation error plus roundoff amplified by 1/step.  A wider
    # outer step h (~ sqrt of the inner one) keeps the overall error O(step^2)
    # while avoiding roundoff blow-up.  Richardson extrapolation of the
    # central differences at h and h/2 is the fourth-order stencil at h/2.
    h = math.sqrt(step) / 2.0
    offsets, weights = _fd_rule(2)
    out_offsets, out_weights = _fd_rule(4)
    pts = _stencil(_stencil(p.coords, h, out_offsets), step, offsets)  # (17, 9, 4)
    F, geo = _sample(params, F_field, pts)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
        Z, starF, eta = _eta(F, geo, step, weights)
        xi_up = np.einsum("...ab,...b->...a", geo["ginv"], geo["xi"])
        g, ginv = geo["g"][:, 0], geo["ginv"][:, 0]
        Z0 = Z[:, 0]
        V = (_leading(eta, g, ginv)
             - _coupling(_lie(xi_up.real, F, step, weights), Z0, g, ginv)
             + _coupling(_lie(xi_up.imag, starF, step, weights), Z0, g, ginv))
        nabla = _cov_fd(V, geo["gamma"][0, 0], (DOWN, DOWN), h, out_weights)
        div = np.einsum("ca,cab->b", ginv[0], nabla)
    if not all(np.all(np.isfinite(x)) for x in (Z0[0], eta[0], V[0], div)):
        raise OverflowError("V_ab of this field overflows double precision")
    if np.max(np.abs(V[0].imag)) > 1e-11 * max(1.0, np.max(np.abs(V[0]))):
        raise CalibrationError("V has a non-negligible imaginary part")

    return CurrentReport(
        Z=TensorValue((DOWN, DOWN), Z0[0]),
        eta=TensorValue((DOWN,), eta[0]),
        V=TensorValue((DOWN, DOWN), V[0].real),
        div_V_residual=float(np.max(np.abs(div))),
        fd_step=step,
    )


def dominant_energy_value(params: KerrParams, eta: TensorValue, p: BLPoint, v1, v2) -> float:
    """(eta_(a etabar_b) - 1/2 g_ab eta.etabar) v1^a v2^b for the leading part of V."""
    W = _leading(eta.components, _eval("g", params, p), _eval("ginv", params, p))
    val = np.asarray(v1) @ W @ np.asarray(v2)
    return float(val.real)
