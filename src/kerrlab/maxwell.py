"""Test Maxwell fields on Kerr and the hidden-symmetry conserved tensor V_ab.

Ships the stationary Coulomb-type closed-form field (validated against the
Maxwell divergence residual before being trusted) and computes, at arbitrary
exterior points: Newman-Penrose scalars, the stress tensor, the 2-form
Z_ab = -(4/3)(*F)_[a^c Y_b]c, the complex current eta_a, and the symmetric
conserved tensor V_ab together with a nested-finite-difference residual of
its conservation law.
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
    _eval,
    coulomb_F_unit,
    kerr_metric,
    killing_yano,
    principal_tetrad,
    random_exterior_points,
    uniform_F_unit,
)
from .tensors import DOWN, UP, TensorValue, cov_deriv_fd, hodge_dual2


@dataclass(frozen=True)
class MaxwellSample:
    """Antisymmetric real field strength at a single exterior point."""

    F: TensorValue
    point: BLPoint
    provenance: str = "user"

    def __post_init__(self):
        if self.F.variance != (DOWN, DOWN):
            raise ValueError("field strength must be a down-down 2-form")
        c = self.F.components
        if np.max(np.abs(c + c.T)) > 1e-13 * max(1.0, np.max(np.abs(c))):
            raise ValueError("field strength is not antisymmetric")


@dataclass(frozen=True)
class CurrentReport:
    """Hidden-symmetry current data and the conservation residual at a point."""

    Z: TensorValue
    eta: TensorValue
    V: TensorValue
    div_V_residual: float
    fd_step: float


def _point(params, coords):
    return BLPoint(coords[0], coords[1], coords[2], coords[3], params)


def _metric_provider(params):
    return lambda q: kerr_metric(params, _point(params, q))


def _coulomb_F(params, coords):
    p = _point(params, coords)
    return TensorValue((DOWN, DOWN), coulomb_F_unit(params, p))


def _uniform_F(params, coords):
    p = _point(params, coords)
    return TensorValue((DOWN, DOWN), uniform_F_unit(params, p))


# field -> (label, coords -> F given params, point seed, tolerance at the finer
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
    pts = random_exterior_points(params, 5, rng, r_range=(None, 10.0))
    for p in pts:
        res_h = maxwell_divergence_residual(params, F_field, p, step=1e-2)
        res_h2 = maxwell_divergence_residual(params, F_field, p, step=5e-3)
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
    """max_b |nabla^a F_ab| for a sampled field strength (coords -> TensorValue)."""
    nabla = cov_deriv_fd(F_field, p.coords, _metric_provider(params), step, order=order)
    ginv = _eval("ginv", params, p)
    div = np.einsum("ca,cab->b", ginv, nabla.components)
    return float(np.max(np.abs(div)))


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


def Z_form(sample: MaxwellSample, metric=None) -> TensorValue:
    """Z_ab = -(4/3) (*F)_[a^c Y_b]c with the calibrated Killing-Yano form.

    metric, when given, is the Kerr metric at the sample's point."""
    params = sample.point.params
    if metric is None:
        metric = kerr_metric(params, sample.point)
    starF = hodge_dual2(sample.F, metric).components
    ginv = metric.g_inv.components.real
    Y = killing_yano(params, sample.point).components.real
    M = np.einsum("ad,dc,bc->ab", starF, ginv, Y)  # (*F)_a{}^c Y_bc
    Z = -(2.0 / 3.0) * (M - M.T)
    return TensorValue((DOWN, DOWN), Z)


def _mixed_W_field(params, F_field):
    """coords -> W_a{}^b = (Z + i *Z)_a{}^b, the combination whose divergence is eta."""

    def field(coords):
        p = _point(params, coords)
        metric = kerr_metric(params, p)
        Z = Z_form(MaxwellSample(F_field(coords), p), metric)
        starZ = hodge_dual2(Z, metric)
        ginv = metric.g_inv.components.real
        W = (Z.components + 1j * starZ.components) @ ginv
        return TensorValue((DOWN, UP), W)

    return field


def eta_oneform(params: KerrParams, F_field, p: BLPoint, step=1e-3, order=2) -> TensorValue:
    """eta_a = nabla_b Z_a^b + i nabla_b (*Z)_a^b by covariant finite differences."""
    W = _mixed_W_field(params, F_field)
    nabla = cov_deriv_fd(W, p.coords, _metric_provider(params), step, order=order)
    eta = np.einsum("bab->a", nabla.components)
    return TensorValue((DOWN,), eta)


def _lie_2form(params, X_field, F_field, coords, step):
    """Coordinate Lie derivative (L_X F)_ab = X^c d_c F_ab + F_cb d_a X^c + F_ac d_b X^c."""
    coords = np.asarray(coords, dtype=float)
    F0 = F_field(coords).components

    def partial(f, shape):
        out = np.zeros((4,) + shape, dtype=complex)
        for c in range(4):
            qp, qm = coords.copy(), coords.copy()
            qp[c] += step
            qm[c] -= step
            out[c] = (f(qp) - f(qm)) / (2 * step)
        return out

    dF = partial(lambda q: F_field(q).components, (4, 4))
    X0 = X_field(coords)
    dX = partial(X_field, (4,))
    lie = np.einsum("c,cab->ab", X0, dF)
    lie += np.einsum("ac,cb->ab", dX, F0)
    lie += np.einsum("bc,ac->ab", dX, F0)
    return lie


def V_tensor(params: KerrParams, F_field, p: BLPoint, step=1e-3) -> CurrentReport:
    """Conserved symmetric tensor V_ab and its divergence residual.

    V_ab = eta_(a etabar_b) - (1/2) g_ab eta.etabar
           - (1/3)(L_{Re xi}F)_(a^c Z_b)c + (1/12) g_ab (L_{Re xi}F)^{cd} Z_cd
           + (1/3)(L_{Im xi}*F)_(a^c Z_b)c - (1/12) g_ab (L_{Im xi}*F)^{cd} Z_cd

    The divergence max_b |nabla^a V_ab| uses Richardson-extrapolated central
    differences at the outer layer; the nested eta layer uses the same step.
    """
    # point -> xi^a = g^ab xi_b, shared by the Lie derivatives along Re xi and Im xi
    xi_up_at = {}

    def xi_up(coords):
        key = tuple(coords)
        if key not in xi_up_at:
            q = _point(params, coords)
            xi_up_at[key] = _eval("ginv", params, q) @ _eval("xi", params, q)
        return xi_up_at[key]

    # point -> (V, Z, eta): the centre serves V0, both outer stencils and the report
    evaluated = {}

    def V_Z_eta(coords):
        key = tuple(coords)
        if key in evaluated:
            return evaluated[key]
        q = _point(params, coords)
        metric = kerr_metric(params, q)
        g = metric.g.components.real
        ginv = metric.g_inv.components.real
        eta_tv = eta_oneform(params, F_field, q, step=step)
        eta = eta_tv.components
        V = 0.5 * (np.outer(eta, eta.conj()) + np.outer(eta.conj(), eta))
        V -= 0.5 * g * (eta @ ginv @ eta.conj())

        Z_tv = Z_form(MaxwellSample(F_field(coords), q), metric)
        Z = Z_tv.components
        lieF = _lie_2form(params, lambda c: xi_up(c).real, F_field, coords, step)

        def star_field(coords2):
            q2 = _point(params, coords2)
            return hodge_dual2(F_field(coords2), kerr_metric(params, q2))

        lieStarF = _lie_2form(params, lambda c: xi_up(c).imag, star_field, coords, step)

        def coupling(L, sign):
            # sign * [ (1/3) L_(a^c Z_b)c - (1/12) g_ab L^{cd} Z_cd ]
            Lmix = L @ ginv  # L_a{}^c
            M = np.einsum("ac,bc->ab", Lmix, Z)
            sym = 0.5 * (M + M.T)
            scalar = np.einsum("ab,ac,bd,cd->", L, ginv, ginv, Z)
            return sign * (sym / 3.0 - g * scalar / 12.0)

        V -= coupling(lieF, 1.0)
        V += coupling(lieStarF, 1.0)
        evaluated[key] = (TensorValue((DOWN, DOWN), V), Z_tv, eta_tv)
        return evaluated[key]

    def V_field(coords):
        return V_Z_eta(coords)[0]

    V0, Z0, eta0 = V_Z_eta(p.coords)
    if np.max(np.abs(V0.components.imag)) > 1e-11 * max(1.0, np.max(np.abs(V0.components))):
        raise CalibrationError("V has a non-negligible imaginary part")

    mp = _metric_provider(params)

    def div_norm(h):
        nabla = cov_deriv_fd(V_field, p.coords, mp, h, order=2).components
        ginv = _eval("ginv", params, p)
        return np.einsum("ca,cab->b", ginv, nabla)

    # The outer layer differentiates a field that itself carries O(step^2)
    # inner truncation error plus roundoff amplified by 1/step.  A wider
    # outer step (~ sqrt of the inner one) keeps the overall error O(step^2)
    # while avoiding roundoff blow-up; Richardson removes the outer O(h^2).
    h_out = math.sqrt(step)
    d1 = div_norm(h_out)
    d2 = div_norm(h_out / 2.0)
    div = (4.0 * d2 - d1) / 3.0
    residual = float(np.max(np.abs(div)))

    return CurrentReport(
        Z=Z0,
        eta=eta0,
        V=TensorValue((DOWN, DOWN), V0.components.real),
        div_V_residual=residual,
        fd_step=step,
    )


def dominant_energy_value(params: KerrParams, eta: TensorValue, p: BLPoint, v1, v2) -> float:
    """(eta_(a etabar_b) - 1/2 g_ab eta.etabar) v1^a v2^b for the leading part of V."""
    g = _eval("g", params, p)
    ginv = _eval("ginv", params, p)
    e = eta.components
    W = 0.5 * (np.outer(e, e.conj()) + np.outer(e.conj(), e)) - 0.5 * g * (e @ ginv @ e.conj())
    val = np.asarray(v1) @ W @ np.asarray(v2)
    return float(val.real)
