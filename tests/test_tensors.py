import math

import numpy as np

from kerrlab import BLPoint, KerrParams, kerr_metric
from kerrlab.kerr import _at
from kerrlab.tensors import _cov_fd, _hodge, _projector, _stencil

P = KerrParams(m=1.0, a=0.5)
PT = BLPoint(0.0, 5.0, 1.1, 0.4, P)
METRIC = kerr_metric(P, PT)


def test_symmetrize_projector_idempotent():
    rng = np.random.default_rng(1)
    t = rng.normal(size=(4, 4, 4))
    s1 = _projector(t, [0, 1, 2], antisym=False)
    s2 = _projector(s1, [0, 1, 2], antisym=False)
    assert np.allclose(s1, s2, atol=1e-13)
    a1 = _projector(t, [0, 1], antisym=True)
    assert np.allclose(a1, -a1.transpose(1, 0, 2), atol=1e-13)


def test_hodge_dual_squares_to_minus_identity():
    # Lorentzian signature in 4D: ** = -1 on 2-forms
    rng = np.random.default_rng(2)
    A = rng.normal(size=(4, 4))
    F = A - A.T
    ginv, sqrtg = METRIC.g_inv.components.real, METRIC.sqrt_abs_det
    FF = _hodge(_hodge(F, ginv, sqrtg), ginv, sqrtg)
    assert np.allclose(FF, -F, atol=1e-10)


def _cov_deriv(form, scale, step, name):
    """nabla_c T_ab... of scale(r) times the named all-down form at PT, by the
    stencil `name` of the given step; the derivative slot comes first."""
    pts = _stencil(PT.coords, step, name)
    [samples] = _at(P, pts[:, 1], pts[:, 2], form)
    samples = samples * scale(pts[:, 1]).reshape((-1,) + (1,) * (samples.ndim - 1))
    [gamma] = _at(P, PT.r, PT.theta, "gamma")
    return _cov_fd(samples, gamma, ("d",) * (samples.ndim - 1), step, name)


def test_cov_deriv_fd_metric_compatibility():
    # nabla g = 0; the FD derivative must vanish to stencil accuracy
    nabla = _cov_deriv("g", np.ones_like, 1e-3, "d1_4")
    assert float(np.max(np.abs(nabla))) < 1e-10


def test_cov_deriv_fd_scalar_gradient_order():
    # rank-1 field with known covariant derivative structure: check the
    # second-order variant converges at order 2 against the fourth-order one
    scale = lambda r: 1.0 + 0.1 * np.sin(r)
    ref = _cov_deriv("xi", scale, 1e-4, "d1_4")
    e1 = np.max(np.abs(_cov_deriv("xi", scale, 2e-2, "d1") - ref))
    e2 = np.max(np.abs(_cov_deriv("xi", scale, 1e-2, "d1") - ref))
    assert 1.9 < math.log2(e1 / e2) < 2.1
