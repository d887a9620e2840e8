"""Test Maxwell fields on Kerr and the hidden-symmetry conserved tensor V_ab.

Ships the stationary Coulomb-type and uniform closed-form fields (validated
against the Maxwell divergence residual before being trusted) and computes,
at arbitrary exterior points: Newman-Penrose scalars, the 2-form
Z_ab = -(4/3)(*F)_[a^c Y_b]c, the complex current eta_a, and the symmetric
conserved tensor V_ab together with a nested-finite-difference residual of
its conservation law.

A field is an array callable: chart points pts[..., 4] go in, the real
field strength F[..., 4, 4] comes out.  A nested stencil is sampled once:
the field at all of its points in one call, checked over the whole array,
and the geometry in one broadcasting closed-form call per quantity; the
rest is array arithmetic over the leading point axes.

The two fields are the array forms `_coulomb_F` and `_uniform_F`.  The
currents have one core, `_currents`, over any number of centres, and F and
V one divergence, `_tensor_divergence`.  The one-point functions wrap array
forms: V_tensor `_currents`, and the others the array form of their name
(`_divergence` for maxwell_divergence_residual).  `maxwell-currents` runs
the cores on blocks of centres, so that a sweep holds the nested stencils
of one block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import CalibrationError, StabilityError
from .kerr import (
    BLPoint,
    KerrParams,
    _at,
    _check_exterior,
    _ky_calibration,
    random_exterior_points,
)
from .tensors import DOWN, UP, TensorValue, _cov_fd, _hodge, _partial_fd, _stencil


def _check_antisymmetric(F):
    """Raise ValueError unless F[..., a, b] is antisymmetric at every point,
    to 1e-13 times max(1, max |F|) at that point."""
    skew = np.max(np.abs(F + np.swapaxes(F, -1, -2)), axis=(-2, -1))
    if np.any(skew > 1e-13 * np.maximum(1.0, np.max(np.abs(F), axis=(-2, -1)))):
        raise ValueError("field strength is not antisymmetric")


@dataclass(frozen=True)
class CurrentReport:
    """Hidden-symmetry current data and the conservation residual at a point."""

    Z: TensorValue
    eta: TensorValue
    V: TensorValue
    div_V_residual: float


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


def _tensor_divergence(T, ginv, gamma, step):
    """g^{ca} nabla_c T_ab from samples T[..., s, a, b] on d1_4 stencils of the
    step, with ginv and gamma at their centres."""
    nabla = _cov_fd(T, gamma, (DOWN, DOWN), step, "d1_4")
    return np.einsum("...ca,...cab->...b", ginv, nabla)


def _divergence(params, F_field, centres, step):
    """max_b |nabla^a F_ab| at each of the chart points centres[n, 4], by
    fourth-order central differences: from the field on the stencil of every
    centre (one call) and ginv, gamma at the centres (one broadcasting
    closed-form call each)."""
    F = _field(params, F_field, _stencil(centres, step, "d1_4"))
    ginv, gamma = _at(params, centres[..., 1], centres[..., 2], "ginv", "gamma")
    return np.max(np.abs(_tensor_divergence(F, ginv, gamma, step)), axis=-1)


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
    residuals = zip(_divergence(params, F_field, centres, 1e-2),
                    _divergence(params, F_field, centres, 5e-3))
    for p, (res_h, res_h2) in zip(pts, residuals):
        if not (res_h2 <= tol and (res_h2 < res_h or res_h < floor)):
            raise CalibrationError(
                f"{label} ansatz failed Maxwell validation at {p.coords}: {res_h} -> {res_h2}"
            )
    return True


def maxwell_divergence_residual(params, F_field, p: BLPoint, step=1e-3) -> float:
    """max_b |nabla^a F_ab| at p for a field (pts[..., 4] -> F[..., 4, 4]), by
    fourth-order central differences."""
    return float(_divergence(params, F_field, p.coords[None], step)[0])


def _np_scalars(F, legs, r, theta, a):
    """(phi0, phi1, phi2, Upsilon) from F[..., 4, 4] and the tetrad legs
    (l, n, m, mbar) [..., 4] at points (r, theta) of the leading axes."""
    l, n, mv, mb = legs
    c = lambda u, v: np.einsum("...a,...ab,...b->...", u, F, v)
    phi1 = 0.5 * (c(l, n) + c(mb, mv))
    return c(l, mv), phi1, c(mb, n), (r - 1j * a * np.cos(theta)) ** 2 * phi1


def _Z(starF, ginv, Y):
    """Z_ab = -(4/3) (*F)_[a^c Y_b]c over leading point axes."""
    M = np.einsum("...ad,...dc,...bc->...ab", starF, ginv, Y)  # (*F)_a{}^c Y_bc
    return -(2.0 / 3.0) * (M - np.swapaxes(M, -1, -2))


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
    _ky_calibration(params)  # Y is validated before it is used
    return F, geo


def _eta(F, geo, step, name):
    """Z, *F and eta_a = nabla_b (Z + i *Z)_a^b from samples on a stencil
    (stencil axis just before the slot axes); eta at the stencil centres."""
    ginv, sqrtg = geo["ginv"], geo["sqrtg"]
    starF = _hodge(F, ginv, sqrtg)
    Z = _Z(starF, ginv, geo["Y"])
    W = np.einsum("...ac,...cb->...ab", Z + 1j * _hodge(Z, ginv, sqrtg), ginv)  # W_a{}^b
    nabla = _cov_fd(W, geo["gamma"][..., 0, :, :, :], (DOWN, UP), step, name)
    return Z, starF, np.einsum("...bab->...a", nabla)


def _lie(X, F, step, name):
    """(L_X F)_ab = X^c d_c F_ab + F_cb d_a X^c + F_ac d_b X^c at the stencil
    centres, from samples X[..., s, a] and F[..., s, a, b] on a stencil."""
    dX = _partial_fd(X, step, name, 1)  # [..., c, a] = d_c X^a
    dF = _partial_fd(F, step, name, 2)
    X0, F0 = X[..., 0, :], F[..., 0, :, :]
    return (np.einsum("...c,...cab->...ab", X0, dF)
            + np.einsum("...ac,...cb->...ab", dX, F0)
            + np.einsum("...bc,...ac->...ab", dX, F0))


def _coupling(L, Z, g, ginv):
    """(1/3) L_(a^c Z_b)c - (1/12) g_ab L^{cd} Z_cd over leading point axes."""
    M = np.einsum("...ad,...dc,...bc->...ab", L, ginv, Z)
    scalar = np.einsum("...ab,...ac,...bd,...cd->...", L, ginv, ginv, Z)
    return 0.5 * (M + np.swapaxes(M, -1, -2)) / 3.0 - g * scalar[..., None, None] / 12.0


def _currents(params: KerrParams, F_field, centres, step):
    """Z, eta, V, the divergence residual max_b |nabla^a V_ab| and F at each of
    the chart points centres[..., 4], the centre axes leading.

    V_ab = eta_(a etabar_b) - (1/2) g_ab eta.etabar
           - (1/3)(L_{Re xi}F)_(a^c Z_b)c + (1/12) g_ab (L_{Re xi}F)^{cd} Z_cd
           + (1/3)(L_{Im xi}*F)_(a^c Z_b)c - (1/12) g_ab (L_{Im xi}*F)^{cd} Z_cd

    The divergence uses Richardson-extrapolated central differences at the
    outer layer; the nested eta layer uses the same step.  F_field is called
    once, on the 17 x 9 points of every centre's nested stencil.  Each check
    holds at every centre: _field's; V and its divergence finite, else
    StabilityError, a numeric failure (V is quadratic in the field); V real.
    The results are copies, so that no stencil array outlives the call.
    """
    # The outer layer differentiates a field that itself carries O(step^2)
    # inner truncation error plus roundoff amplified by 1/step.  A wider
    # outer step h (~ sqrt of the inner one) keeps the overall error O(step^2)
    # while avoiding roundoff blow-up.  Richardson extrapolation of the
    # central differences at h and h/2 is the fourth-order stencil at h/2.
    h = math.sqrt(step) / 2.0
    pts = _stencil(_stencil(centres, h, "d1_4"), step, "d1")  # [..., 17, 9, 4]
    F, geo = _sample(params, F_field, pts)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
        Z, starF, eta = _eta(F, geo, step, "d1")
        xi_up = np.einsum("...ab,...b->...a", geo["ginv"], geo["xi"])
        # on the outer stencil, [..., 17, 4, 4]
        g, ginv, Z = (x[..., 0, :, :] for x in (geo["g"], geo["ginv"], Z))
        V = (_leading(eta, g, ginv)
             - _coupling(_lie(xi_up.real, F, step, "d1"), Z, g, ginv)
             + _coupling(_lie(xi_up.imag, starF, step, "d1"), Z, g, ginv))
        div = _tensor_divergence(V, ginv[..., 0, :, :], geo["gamma"][..., 0, 0, :, :, :], h)
    Z, eta, V = Z[..., 0, :, :], eta[..., 0, :], V[..., 0, :, :]  # at the centres
    if not all(np.all(np.isfinite(x)) for x in (Z, eta, V, div)):
        raise StabilityError("V_ab of this field overflows double precision")
    scale = np.maximum(1.0, np.max(np.abs(V), axis=(-2, -1)))
    if np.any(np.max(np.abs(V.imag), axis=(-2, -1)) > 1e-11 * scale):
        raise CalibrationError("V has a non-negligible imaginary part")
    return (Z.copy(), eta.copy(), V.real.copy(), np.max(np.abs(div), axis=-1),
            F[..., 0, 0, :, :].copy())


def V_tensor(params: KerrParams, F_field, p: BLPoint, step=1e-3) -> CurrentReport:
    """Conserved symmetric tensor V_ab and its divergence residual at p: `_currents`
    at one centre, for a field mapping pts[..., 4] to F[..., 4, 4]."""
    Z, eta, V, div, _ = _currents(params, F_field, p.coords, step)
    return CurrentReport(
        Z=TensorValue((DOWN, DOWN), Z),
        eta=TensorValue((DOWN,), eta),
        V=TensorValue((DOWN, DOWN), V),
        div_V_residual=float(div),
    )


def _dominant_energy(eta, g, ginv, v1, v2):
    """Re (eta_(a etabar_b) - 1/2 g_ab eta.etabar) v1^a v2^b over leading point axes."""
    return np.einsum("...a,...ab,...b->...", v1, _leading(eta, g, ginv), v2).real


def dominant_energy_value(params: KerrParams, eta: TensorValue, p: BLPoint, v1, v2) -> float:
    """(eta_(a etabar_b) - 1/2 g_ab eta.etabar) v1^a v2^b for the leading part of V."""
    g, ginv = _at(params, p.r, p.theta, "g", "ginv")
    return float(_dominant_energy(eta.components, g, ginv, np.asarray(v1), np.asarray(v2)))
