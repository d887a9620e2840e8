import math

import numpy as np
import pytest

from kerrlab import (BLPoint, KerrParams, V_tensor, Z_form, coulomb_field,
                     dominant_energy_value, eta_oneform, hodge_dual2,
                     kerr_metric, killing_yano, maxwell_divergence_residual,
                     np_scalars, principal_tetrad, random_exterior_points,
                     stress_tensor, uniform_field)
from kerrlab.maxwell import _coulomb_F, _uniform_F

PARAMS = KerrParams(1.0, 0.5)


def pts(n, seed=21):
    rng = np.random.default_rng(seed)
    return random_exterior_points(PARAMS, n, rng, r_range=(None, 10.0))


def test_coulomb_satisfies_maxwell():
    for p in pts(4):
        res = maxwell_divergence_residual(PARAMS, lambda q: _coulomb_F(PARAMS, q), p)
        assert res < 1e-7


def test_uniform_satisfies_maxwell():
    for p in pts(4, seed=22):
        res = maxwell_divergence_residual(PARAMS, lambda q: _uniform_F(PARAMS, q), p)
        assert res < 1e-6


def test_coulomb_np_scalars_aligned():
    # the Coulomb field is aligned with the principal null directions:
    # phi0 = phi2 = 0 and Upsilon = (r - i a cos theta) phi1 is constant
    ups = []
    for p in pts(4, seed=23):
        sample = coulomb_field(PARAMS, 1.0, p)
        phi0, phi1, phi2, upsilon = np_scalars(sample, principal_tetrad(PARAMS, p))
        assert abs(phi0) < 1e-10 and abs(phi2) < 1e-10
        assert abs(phi1) > 0
        ups.append(upsilon)
    assert max(abs(u - ups[0]) for u in ups) < 1e-10


def test_uniform_np_scalars_not_aligned():
    p = pts(1, seed=24)[0]
    sample = uniform_field(PARAMS, 1.0, p)
    phi0, phi1, phi2, _ = np_scalars(sample, principal_tetrad(PARAMS, p))
    assert max(abs(phi0), abs(phi2)) > 1e-6


def test_stress_tensor_symmetric_traceless():
    p = pts(1, seed=25)[0]
    sample = uniform_field(PARAMS, 2.0, p)
    T = stress_tensor(sample).components.real
    assert np.allclose(T, T.T, atol=1e-12 * max(1.0, np.max(np.abs(T))))
    ginv = kerr_metric(PARAMS, p).g_inv.components.real
    assert abs(np.einsum("ab,ab->", ginv, T)) < 1e-10 * max(1.0, np.max(np.abs(T)))


def test_coulomb_Z_vanishes_identically():
    # alignment with the principal directions makes the polarization 2-form
    # Z vanish pointwise for the Coulomb field
    for p in pts(3, seed=26):
        Z = Z_form(coulomb_field(PARAMS, 1.0, p))
        assert np.max(np.abs(Z.components)) < 1e-10


def test_uniform_Z_and_eta_nonzero():
    p = BLPoint(0.0, 5.0, 1.1, 0.4, PARAMS)
    Z = Z_form(uniform_field(PARAMS, 1.0, p))
    assert np.max(np.abs(Z.components)) > 1e-4
    eta = eta_oneform(PARAMS, lambda q: _uniform_F(PARAMS, q), p)
    assert np.max(np.abs(eta.components)) > 1e-6


def test_V_tensor_conserved_uniform_field():
    p = BLPoint(0.0, 5.0, 1.1, 0.4, PARAMS)
    rep = V_tensor(PARAMS, lambda q: _uniform_F(PARAMS, q), p, step=1e-3)
    assert rep.div_V_residual < 1e-5
    rep2 = V_tensor(PARAMS, lambda q: _uniform_F(PARAMS, q), p, step=2e-3)
    order = math.log2(rep2.div_V_residual / rep.div_V_residual)
    assert order > 1.5
    # V is real symmetric
    V = rep.V.components.real
    assert np.allclose(V, V.T, atol=1e-10 * max(1.0, np.max(np.abs(V))))


def test_dominant_energy_leading_part():
    p = BLPoint(0.0, 6.0, 1.0, 0.2, PARAMS)
    rep = V_tensor(PARAMS, lambda q: _uniform_F(PARAMS, q), p, step=1e-3)
    g = kerr_metric(PARAMS, p).g.components.real
    v = np.array([1.0, 0.0, 0.0, 0.0]) / math.sqrt(-g[0, 0])
    assert dominant_energy_value(PARAMS, rep.eta, p, v, v) >= -1e-12


def test_hodge_dual_of_coulomb_antisymmetric():
    p = pts(1, seed=27)[0]
    sample = coulomb_field(PARAMS, 1.0, p)
    dual = hodge_dual2(sample.F, kerr_metric(PARAMS, p))
    c = dual.components
    assert np.max(np.abs(c + c.T)) < 1e-10 * max(1.0, np.max(np.abs(c)))


def test_V_tensor_evaluates_each_point_once(monkeypatch):
    # 16 outer-stencil points (two steps x four directions x two sides) plus
    # the centre, which also supplies V0 and the reported eta
    import kerrlab.maxwell as maxwell

    calls = []
    inner = maxwell.eta_oneform

    def counted(params, F_field, p, *args, **kwargs):
        calls.append(tuple(p.coords))
        return inner(params, F_field, p, *args, **kwargs)

    monkeypatch.setattr(maxwell, "eta_oneform", counted)
    p = BLPoint(0.0, 5.0, 1.1, 0.4, PARAMS)
    F = lambda q: _uniform_F(PARAMS, q)
    rep = V_tensor(PARAMS, F, p, step=1e-3)
    assert len(calls) == 17 and len(set(calls)) == 17
    assert np.array_equal(rep.eta.components, inner(PARAMS, F, p, step=1e-3).components)


def test_V_tensor_geometry_evaluation_counts(monkeypatch):
    # W evaluates the metric once for itself and its Z, and xi^a is evaluated
    # once for the Lie derivatives along both Re xi and Im xi.  kerr_metric:
    # 17 points x (centre + 9 W points + eta's connection + 9 *F points) + the
    # 2 outer connections; xi: 17 points x 9 Lie-derivative points
    import kerrlab.kerr as kerr
    import kerrlab.maxwell as maxwell

    p = BLPoint(0.0, 5.0, 1.1, 0.4, PARAMS)
    killing_yano(PARAMS, p)  # the cached Killing-Yano calibration evaluates xi once
    counts = {"kerr_metric": 0, "xi": 0}
    metric, evaluate = maxwell.kerr_metric, kerr._eval

    def counted_metric(*args):
        counts["kerr_metric"] += 1
        return metric(*args)

    def counted_eval(name, *args):
        counts["xi"] += name == "xi"
        return evaluate(name, *args)

    monkeypatch.setattr(maxwell, "kerr_metric", counted_metric)
    monkeypatch.setattr(maxwell, "_eval", counted_eval)
    monkeypatch.setattr(kerr, "_eval", counted_eval)
    V_tensor(PARAMS, lambda q: _uniform_F(PARAMS, q), p, step=1e-3)
    assert counts == {"kerr_metric": 342, "xi": 153}
