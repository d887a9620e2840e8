"""Vacuum constraint residuals for 3D initial-data slices.

A slice is given by samplers for the Riemannian 3-metric h and the second
fundamental form k.  The Hamiltonian residual scal_h + (tr_h k)^2 - |k|^2
and the momentum residual div(k) - d(tr_h k) are evaluated with nested
fourth-order central finite differences of the samplers (no closed-form
curvature is assumed).  The differences come from the array layer of
`tensors`: h is sampled once on the nested 13 x 13 stencil of every point
and k once on the outer 13 points, and the Christoffel symbols, their
derivatives, Ricci, tr k, div k and d(tr k) are array arithmetic over the
leading point axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .tensors import DOWN, _cov_fd, _partial_fd, _stencil

_D3 = 3


@dataclass(frozen=True)
class SliceData:
    """3-metric and extrinsic-curvature samplers on a 3D chart.

    h_sampler: point (length-3 array) -> symmetric positive 3x3 array.
    k_sampler: point -> symmetric 3x3 array.
    Each gives a matrix per point, so each is called once per point
    (`_sample`), not by `_stencils.on_points`.
    """

    h_sampler: object
    k_sampler: object


def _sample(sampler, name, pts):
    """Sampler values [..., 3, 3] at the points pts[..., 3], one call per
    point; each value must be symmetric to 1e-12 times max(1, max |value|)."""
    flat = pts.reshape(-1, _D3)
    M = np.array([sampler(q) for q in flat], dtype=float).reshape(len(flat), _D3, _D3)
    skew = np.max(np.abs(M - np.swapaxes(M, -1, -2)), axis=(-2, -1))
    if np.any(skew > 1e-12 * np.maximum(1.0, np.max(np.abs(M), axis=(-2, -1)))):
        raise DomainError(f"{name} sampler returned a non-symmetric matrix")
    return M.reshape(pts.shape[:-1] + (_D3, _D3))


def _sample_h(data, pts):
    """_sample of the 3-metric, which must also be positive definite."""
    h = _sample(data.h_sampler, "h", pts)
    if np.any(np.linalg.eigvalsh(h.reshape(-1, _D3, _D3)) <= 0):
        raise DomainError("3-metric is not positive definite at a sample point")
    return h


def _curvature(data, points, step):
    """Ricci scalar at each point, plus the outer stencil points, h^{-1} on
    them and Gamma^c_ab at the centres, from h on the nested stencil."""
    outer = _stencil(np.asarray(points, dtype=float).reshape(len(points), _D3), step, "d1_4")
    h = _sample_h(data, _stencil(outer, step, "d1_4"))  # [n, 13, 13, a, b]
    hinv = np.linalg.inv(h[:, :, 0])
    dh = _partial_fd(h, step, "d1_4", 2)  # [n, 13, c, a, b] = partial_c h_ab
    gamma = 0.5 * (
        np.einsum("...cd,...adb->...cab", hinv, dh)
        + np.einsum("...cd,...bda->...cab", hinv, dh)
        - np.einsum("...cd,...dab->...cab", hinv, dh)
    )
    dgamma = _partial_fd(gamma, step, "d1_4", 3)  # [n, e, c, a, b] = partial_e Gamma^c_ab
    g0 = gamma[:, 0]
    # R_ab = partial_c Gamma^c_ab - partial_a Gamma^c_cb + Gamma^c_cd Gamma^d_ab
    #        - Gamma^c_ad Gamma^d_cb
    ricci = (np.einsum("...ccab->...ab", dgamma) - np.einsum("...accb->...ab", dgamma)
             + np.einsum("...ccd,...dab->...ab", g0, g0) - np.einsum("...cad,...dcb->...ab", g0, g0))
    return np.einsum("...ab,...ab->...", hinv[:, 0], ricci), outer, hinv, g0


def constraint_residual(data: SliceData, points, step=1e-3):
    """Hamiltonian and momentum constraint residuals at each sample point.

    Returns (hamiltonian: array of scalars, momentum: array of covectors).
    """
    scal, outer, hinv, gamma = _curvature(data, points, step)
    k = _sample(data.k_sampler, "k", outer)  # [n, 13, a, b]
    trk = np.einsum("...ab,...ab->...", hinv, k)
    hinv0, k0 = hinv[:, 0], k[:, 0]
    ksq = np.einsum("...ab,...cd,...ac,...bd->...", k0, k0, hinv0, hinv0)
    # (div k)_a = h^{bc} nabla_b k_{ca}
    nk = _cov_fd(k, gamma, (DOWN, DOWN), step, "d1_4")
    div_k = np.einsum("...bc,...bca->...a", hinv0, nk)
    return scal + trk[:, 0] ** 2 - ksq, div_k - _partial_fd(trk, step, "d1_4", 0)


def schwarzschild_slice(m: float) -> SliceData:
    """Time-symmetric Schwarzschild slice h = f^-1 dr^2 + r^2 dOmega^2, k = 0.

    Chart order (r, theta, phi); scalar-flat, so the Hamiltonian residual
    vanishes in the continuum.
    """
    def h(p):
        r, th = p[0], p[1]
        if r <= 2 * m:
            raise DomainError("Schwarzschild slice sampler needs r > 2m")
        f = 1.0 - 2.0 * m / r
        return np.diag([1.0 / f, r**2, r**2 * np.sin(th) ** 2])

    return SliceData(h_sampler=h, k_sampler=lambda p: np.zeros((3, 3)))


def round_sphere_slice(radius: float = 1.0) -> SliceData:
    """Round 3-sphere of the given radius with k = 0 (non-vacuum: scal = 6/radius^2).

    Chart order (chi, theta, phi) hyperspherical.
    """
    def h(p):
        chi, th = p[0], p[1]
        s = radius**2
        return np.diag([s, s * np.sin(chi) ** 2, s * np.sin(chi) ** 2 * np.sin(th) ** 2])

    return SliceData(h_sampler=h, k_sampler=lambda p: np.zeros((3, 3)))
