import math

import numpy as np
import pytest

from kerrlab import (BLPoint, DomainError, KerrParams, V_tensor, coulomb_field,
                     dominant_energy_value, kerr_metric,
                     maxwell_divergence_residual, np_scalars, principal_tetrad,
                     random_exterior_points, uniform_field)
from kerrlab.kerr import _ky_calibration
from kerrlab.maxwell import _coulomb_F, _eta, _sample, _uniform_F
from kerrlab.tensors import _hodge, _stencil

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


def test_coulomb_Z_vanishes_identically():
    # alignment with the principal directions makes the polarization 2-form
    # Z vanish pointwise for the Coulomb field
    for p in pts(3, seed=26):
        Z = V_tensor(PARAMS, lambda q: _coulomb_F(PARAMS, q), p).Z
        assert np.max(np.abs(Z.components)) < 1e-10


def test_uniform_Z_and_eta_nonzero():
    p = BLPoint(0.0, 5.0, 1.1, 0.4, PARAMS)
    rep = V_tensor(PARAMS, lambda q: _uniform_F(PARAMS, q), p)
    assert np.max(np.abs(rep.Z.components)) > 1e-4
    assert np.max(np.abs(rep.eta.components)) > 1e-6


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
    metric = kerr_metric(PARAMS, p)
    c = _hodge(sample.F.components.real, metric.g_inv.components.real, metric.sqrt_abs_det)
    assert np.max(np.abs(c + c.T)) < 1e-10 * max(1.0, np.max(np.abs(c)))


def test_V_tensor_evaluates_each_point_once(monkeypatch):
    # the 17-point outer stencil times the 9-point inner one: the field is
    # called once, on all 153 points, each of them distinct, and the reported
    # eta is the one the inner 9-point stencil alone gives at the centre
    p = BLPoint(0.0, 5.0, 1.1, 0.4, PARAMS)
    calls = []

    def F(q):
        calls.append(q.copy())
        return _uniform_F(PARAMS, q)

    rep = V_tensor(PARAMS, F, p, step=1e-3)
    assert len(calls) == 1 and calls[0].shape == (17, 9, 4)
    assert len(set(map(tuple, calls[0].reshape(-1, 4)))) == 153
    F, geo = _sample(PARAMS, lambda q: _uniform_F(PARAMS, q), _stencil(p.coords, 1e-3, "d1"))
    assert np.array_equal(rep.eta.components, _eta(F, geo, 1e-3, "d1")[2])


def test_V_tensor_geometry_evaluation_counts(monkeypatch):
    # the geometry and the field at all 153 stencil points are one
    # broadcasting closed-form call per quantity, and no per-point metric is
    # built
    import kerrlab.kerr as kerr

    p = BLPoint(0.0, 5.0, 1.1, 0.4, PARAMS)
    _ky_calibration(PARAMS)  # the cached Killing-Yano calibration evaluates xi once
    forms = kerr._forms()
    counts = {}

    def counted_form(name):
        def form(*args):
            counts[name] = counts.get(name, 0) + 1
            return forms[name](*args)
        return form

    def no_metric(*args):
        raise AssertionError("V_tensor called kerr_metric")

    counted = {name: counted_form(name) for name in forms}
    monkeypatch.setattr(kerr, "_forms", lambda: counted)
    monkeypatch.setattr(kerr, "kerr_metric", no_metric)
    V_tensor(PARAMS, lambda q: _uniform_F(PARAMS, q), p, step=1e-3)
    assert counts == {name: 1 for name in ("g", "ginv", "sqrtg", "gamma", "Y", "xi", "F_uniform")}


def test_V_tensor_rejects_stencil_across_the_axis():
    # the centre is a valid point, but the outer stencil (step sqrt(1e-3))
    # reaches theta < 0; the field evaluates the closed form without
    # checking its point, so the check must be V_tensor's own
    from kerrlab.kerr import _forms

    F_unit = _forms()["F_uniform"]
    p = BLPoint(0.0, 5.0, 0.02, 0.4, PARAMS)
    with pytest.raises(DomainError):
        V_tensor(PARAMS, lambda q: F_unit(1.0, 0.5, q[..., 1], q[..., 2]), p, step=1e-3)


def test_V_tensor_rejects_stencil_across_the_horizon():
    # the centre lies 0.01 outside r_plus and the outer stencil (step
    # sqrt(1e-3)) reaches 0.02 inside it; the field does not check its points
    from kerrlab.kerr import _forms

    F_unit = _forms()["F_uniform"]
    p = BLPoint(0.0, PARAMS.r_plus + 1e-2, 1.1, 0.4, PARAMS)
    with pytest.raises(DomainError, match="horizon"):
        V_tensor(PARAMS, lambda q: F_unit(1.0, 0.5, q[..., 1], q[..., 2]), p, step=1e-3)


def test_V_tensor_rejects_a_non_antisymmetric_field():
    p = BLPoint(0.0, 5.0, 1.1, 0.4, PARAMS)

    def F(q):
        return _uniform_F(PARAMS, q) + 1e-3 * np.eye(4)

    with pytest.raises(ValueError, match="antisymmetric"):
        V_tensor(PARAMS, F, p, step=1e-3)


def test_V_tensor_rejects_a_non_finite_field():
    p = BLPoint(0.0, 5.0, 1.1, 0.4, PARAMS)

    def F(q):
        F0 = _uniform_F(PARAMS, q)
        F0[3, 2, 0, 1] = np.nan
        return F0

    with pytest.raises(ValueError, match="non-finite"):
        V_tensor(PARAMS, F, p, step=1e-3)


def test_calibration_calls_the_field_once_per_step(monkeypatch):
    # the 5 calibration points times the 17-point stencil of each: one field
    # call per step over all 85 points, and no per-point metric is built
    import kerrlab.kerr as kerr
    import kerrlab.maxwell as maxwell

    calls = []

    def F(params, q):
        calls.append(q.copy())
        return _uniform_F(params, q)

    def no_metric(*args):
        raise AssertionError("the calibration called kerr_metric")

    monkeypatch.setitem(maxwell._CALIBRATIONS, "uniform", ("uniform-field", F, 4321, 1e-5, 1e-9))
    monkeypatch.setattr(kerr, "kerr_metric", no_metric)
    assert maxwell._calibration.__wrapped__(PARAMS, "uniform")
    assert [q.shape for q in calls] == [(5, 17, 4), (5, 17, 4)]
    for q in calls:
        assert len(set(map(tuple, q.reshape(-1, 4)))) == 85
