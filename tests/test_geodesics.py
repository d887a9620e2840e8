import math

import numpy as np
import pytest

import kerrlab.geodesics as geodesics
from kerrlab import (BLPoint, KerrParams, circular_orbit_state,
                     conserved_drift, conserved_quantities, integrate_geodesic,
                     normalize_velocity, photon_orbit_radius)


def test_circular_orbit_conserved_closed_form():
    # Schwarzschild r = 6m circular orbit: e = 2 sqrt(2)/3, l_z = sqrt(12),
    # and the Carter invariant k = K_ab u^a u^b
    params = KerrParams(1.0, 0.0)
    s = circular_orbit_state(params, 6.0)
    c = conserved_quantities(params, s)
    assert abs(c.e - 2.0 * math.sqrt(2.0) / 3.0) < 1e-12
    assert abs(c.lz - math.sqrt(12.0)) < 1e-12
    assert abs(c.k - (-12.0)) < 1e-10


def test_photon_orbit_schwarzschild():
    params = KerrParams(1.0, 0.0)
    r = photon_orbit_radius(params, (2.5, 3.5))
    assert abs(r - 3.0) < 1e-6


def test_photon_orbit_kerr_prograde_bracket():
    params = KerrParams(1.0, 0.5)
    r = photon_orbit_radius(params, (1.9, 2.9), prograde=True)
    assert 1.9 < r < 2.9
    # retrograde orbit sits outside r = 3m
    r_retro = photon_orbit_radius(params, (3.0, 4.0), prograde=False)
    assert r_retro > 3.0


def test_normalize_velocity_targets():
    params = KerrParams(1.0, 0.5)
    from kerrlab.kerr import kerr_metric
    pt = BLPoint(0.0, 8.0, 1.2, 0.3, params)
    g = kerr_metric(params, pt).g.components.real
    s = normalize_velocity(params, pt, (0.01, 0.02, 0.03), "timelike")
    u = s.u.real_part()
    assert abs(u @ g @ u + 1.0) < 1e-12 and u[0] > 0
    s0 = normalize_velocity(params, pt, (0.1, 0.0, 0.05), "null")
    u0 = s0.u.real_part()
    assert abs(u0 @ g @ u0) < 1e-12


@pytest.mark.parametrize("a", [0.0, 0.5, 0.9])
def test_conserved_drift_long_integration(a):
    params = KerrParams(1.0, a)
    rng = np.random.default_rng(5)
    for _ in range(3):
        pt = BLPoint(0.0, rng.uniform(6.0, 12.0), rng.uniform(0.8, 2.2), 0.0, params)
        s0 = normalize_velocity(
            params, pt,
            (rng.uniform(-0.05, 0.05), rng.uniform(-0.03, 0.03), rng.uniform(0.01, 0.05)),
            "timelike")
        traj = integrate_geodesic(params, s0, 100.0, tol=1e-13)
        drifts = conserved_drift(params, traj, "timelike")
        assert np.max(drifts) < 1e-9


def test_plunge_detected():
    params = KerrParams(1.0, 0.0)
    pt = BLPoint(0.0, 4.0, math.pi / 2, 0.0, params)
    s0 = normalize_velocity(params, pt, (-0.5, 0.0, 0.0), "timelike")
    traj = integrate_geodesic(params, s0, 500.0, tol=1e-10)
    assert traj.plunged
    assert traj.x[-1, 1] < 4.0


def test_conserved_series_matches_pointwise_integrals():
    from kerrlab.geodesics import conserved_series

    params = KerrParams(1.0, 0.7)
    pt = BLPoint(0.0, 9.0, 1.2, 0.0, params)
    s0 = normalize_velocity(params, pt, (0.01, 0.02, 0.03), "timelike")
    traj = integrate_geodesic(params, s0, 40.0, tol=1e-12, n_samples=7)
    series = conserved_series(params, traj.x, traj.u)
    assert series.shape == (7, 4)
    for i in range(7):
        c = conserved_quantities(params, traj.state(i, "timelike"))
        assert np.allclose(series[i, :3], [c.e, c.lz, c.k], rtol=1e-13, atol=1e-13)
    assert np.allclose(series[:, 3], -1.0, atol=1e-10)


def test_integrate_geodesic_calls_the_module_solve_ivp(monkeypatch):
    # integrate_geodesic reaches scipy through the module attribute, so a
    # replacement there sees every right-hand side evaluation
    params = KerrParams(1.0, 0.5)
    s0 = circular_orbit_state(params, 8.0)
    plain = integrate_geodesic(params, s0, 20.0)
    inner = geodesics.solve_ivp
    calls = []

    def counted(fun, *args, **kwargs):
        def rhs(tau, y):
            calls.append(tau)
            return fun(tau, y)

        return inner(rhs, *args, **kwargs)

    monkeypatch.setattr(geodesics, "solve_ivp", counted)
    traj = integrate_geodesic(params, s0, 20.0)
    assert calls
    assert np.array_equal(traj.x, plain.x) and np.array_equal(traj.u, plain.u)
    assert np.array_equal(traj.tau, plain.tau)
