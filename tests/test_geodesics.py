import math

import numpy as np
import pytest

from oracles import circular_orbit_state, trajectory_state

import kerrlab.geodesics as geodesics
from kerrlab import (BLPoint, KerrParams, conserved_drift, conserved_quantities,
                     integrate_geodesic, normalize_velocity, photon_orbit_radius)


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
    r = photon_orbit_radius(params)
    assert abs(r - 3.0) < 1e-6


def test_photon_orbit_kerr_prograde_bracket():
    params = KerrParams(1.0, 0.5)
    r = photon_orbit_radius(params, prograde=True)
    assert 1.9 < r < 2.9
    # retrograde orbit sits outside r = 3m
    r_retro = photon_orbit_radius(params, prograde=False)
    assert r_retro > 3.0


@pytest.mark.parametrize("prograde", [True, False])
@pytest.mark.parametrize("a", [0.0, 0.5, 0.9, 0.999])
def test_photon_orbit_closed_form_solves_the_radial_equation(a, prograde):
    # Gamma^r_tt + 2 Omega Gamma^r_tphi + Omega^2 Gamma^r_phiphi = 0 with Omega
    # the null angular velocity of that sense, from the metric's own
    # Christoffels, to 1e-12 of the largest of its three terms
    from kerrlab.kerr import kerr_metric

    params = KerrParams(1.0, a)
    r = photon_orbit_radius(params, prograde=prograde)
    metric = kerr_metric(params, BLPoint(0.0, r, math.pi / 2, 0.0, params))
    g, gamma = metric.g.components.real, metric.christoffel
    root = math.sqrt(g[0, 3] ** 2 - g[0, 0] * g[3, 3])
    omega = (-g[0, 3] + (root if prograde else -root)) / g[3, 3]
    terms = (gamma[1, 0, 0], 2.0 * omega * gamma[1, 0, 3], omega**2 * gamma[1, 3, 3])
    assert abs(sum(terms)) <= 1e-12 * max(map(abs, terms))
    assert omega > 0.0 if prograde else omega < 0.0


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


def test_normalize_velocity_on_and_next_to_the_ergosurface():
    # on the equator r = 2m is the ergosurface, where A = g_tt = 0 and u^t
    # solves the linear B u^t + C = 0; just outside it the quadratic's root
    # must not cancel.  u^t is checked to 1e-13 relative against the root of
    # the same coefficients in 50-digit decimal arithmetic
    from decimal import Decimal, localcontext

    from kerrlab import DomainError
    from kerrlab.kerr import kerr_metric

    params = KerrParams(1.0, 0.5)
    uth, uph = 0.02, 0.03
    for r in (2.0, 2.0 * (1.0 + 1e-12)):
        pt = BLPoint(0.0, r, math.pi / 2, 0.0, params)
        g = [[Decimal(float(x)) for x in row] for row in kerr_metric(params, pt).g.components.real]
        with localcontext() as ctx:
            ctx.prec = 50
            A, B = g[0][0], 2 * g[0][3] * Decimal(uph)
            C = g[2][2] * Decimal(uth) ** 2 + g[3][3] * Decimal(uph) ** 2 + 1
            exact = float(-C / B if A == 0 else (-B - (B * B - 4 * A * C).sqrt()) / (2 * A))
        ut = normalize_velocity(params, pt, (0.0, uth, uph)).u.real_part()[0]
        assert abs(ut - exact) <= 1e-13 * exact, r
    # with u^phi = 0 on the ergosurface, B = 0 too and nothing fixes u^t
    with pytest.raises(DomainError, match="leaves u\\^t free"):
        normalize_velocity(params, BLPoint(0.0, 2.0, math.pi / 2, 0.0, params), (0.0, uth, 0.0))


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


@pytest.mark.parametrize("n_samples", [0, 1])
def test_fewer_than_two_samples_are_refused(n_samples):
    # one sample is the initial state alone: every drift would read 0
    from kerrlab import DomainError

    params = KerrParams(1.0, 0.5)
    s0 = normalize_velocity(params, BLPoint(0.0, 8.0, math.pi / 2, 0.0, params),
                            (0.0, 0.02, 0.03), "timelike")
    with pytest.raises(DomainError, match="n_samples"):
        integrate_geodesic(params, s0, 20.0, n_samples=n_samples)


def test_conserved_series_matches_pointwise_integrals():
    from kerrlab.geodesics import conserved_series

    params = KerrParams(1.0, 0.7)
    pt = BLPoint(0.0, 9.0, 1.2, 0.0, params)
    s0 = normalize_velocity(params, pt, (0.01, 0.02, 0.03), "timelike")
    traj = integrate_geodesic(params, s0, 40.0, tol=1e-12, n_samples=7)
    series = conserved_series(params, traj.x, traj.u)
    assert series.shape == (7, 4)
    for i in range(7):
        c = conserved_quantities(params, trajectory_state(traj, i, "timelike"))
        assert np.allclose(series[i, :3], [c.e, c.lz, c.k], rtol=1e-13, atol=1e-13)
    assert np.allclose(series[:, 3], -1.0, atol=1e-10)


def test_conserved_quantities_are_their_series_row_bit_for_bit():
    # conserved_series is the one formula for e, l_z and k: a state's integrals
    # are its row of a series over many states, to the last bit
    from kerrlab.geodesics import conserved_series

    rng = np.random.default_rng(35)
    for a in (0.0, 0.3, 0.9, 0.999):
        params = KerrParams(1.0, a)
        states = []
        for _ in range(30):
            pt = BLPoint(0.0, rng.uniform(3.0, 12.0), rng.uniform(0.3, math.pi - 0.3),
                         rng.uniform(0.0, 2 * math.pi), params)
            u_spatial = (rng.uniform(-0.3, 0.3), rng.uniform(-0.05, 0.05), rng.uniform(-0.1, 0.1))
            states.append(normalize_velocity(params, pt, u_spatial, "timelike"))
        series = conserved_series(params, np.array([s.x.coords for s in states]),
                                  np.array([s.u.real_part() for s in states]))
        for s, row in zip(states, series):
            c = conserved_quantities(params, s)
            assert np.array([c.e, c.lz, c.k]).tobytes() == row[:3].tobytes(), (a, s.x.coords)


def test_integrate_geodesic_calls_the_module_solve_ivp(monkeypatch):
    # integrate_geodesic reaches its integrator through the module attribute, so a
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


def test_one_state_rhs_at_the_horizon_returns_the_numpy_kernels_values():
    # at r = r+ (Delta = 0) flow's twin on Python floats raises; the one-state
    # right-hand side must return the numpy kernel's inf/NaN instead, which the
    # integrator rejects as a step, and raise nothing
    import types

    from kerrlab import kerr
    from kerrlab._closed_forms import FORMS

    params = KerrParams(1.0, 0.5)
    y = [0.0, params.r_plus, 1.1, 0.0, -0.9, -0.3, 0.01, 0.02]
    state = (params.m, params.a, *y[1:3], *y[4:])
    kernel = FORMS["flow"][0]
    twin = types.FunctionType(kernel.__code__, kerr._MATH_GLOBALS)
    with pytest.raises(ZeroDivisionError):
        twin(*state)
    with np.errstate(all="ignore"):
        got = np.array(geodesics._geodesic_rhs(params)(0.0, y))
        ut, ur, uth, uph, fr, fth = kernel(*map(np.float64, state))
        want = np.array([ut, ur, uth, uph, 0.0, fr, fth, 0.0])
    assert not np.all(np.isfinite(got))
    assert got.tobytes() == want.tobytes()


def test_the_one_state_right_hand_side_runs_on_python_floats(monkeypatch):
    # the integrator hands one state to the right-hand side as a list of
    # Python floats at a float tau, in its steps and in its event crossings,
    # and a batch as float arrays.  At np.float64 every operation of the step
    # and of the kernel's twin runs through numpy's scalars, which undid the
    # gain of running the step on floats
    params = KerrParams(1.0, 0.5)
    s0 = normalize_velocity(params, BLPoint(0.0, 8.0, 1.2, 0.0, params),
                            (0.01, 0.02, 0.03), "timelike")
    inner, seen = geodesics.solve_ivp, []

    def traced(fun, *args, **kwargs):
        def rhs(tau, y):
            seen.append((type(tau), type(y), {type(v) for v in y} if type(y) is list else y.dtype))
            return fun(tau, y)

        return inner(rhs, *args, **kwargs)

    monkeypatch.setattr(geodesics, "solve_ivp", traced)
    traj = integrate_geodesic(params, s0, 20.0)
    assert abs(traj.x[-1, 0] - 20.0) < 1e-9  # the run ended on its t event, after a crossing
    one = [entry for entry in seen if entry[1] is list]
    assert len(one) > 100 and all(entry == (float, list, {float}) for entry in one)
    batch = [entry for entry in seen if entry[1] is not list]
    assert batch and all(entry[1:] == (np.ndarray, np.float64) for entry in batch)


def test_gbs_integrates_the_harmonic_oscillator_to_its_tolerance():
    from kerrlab._gbs import solve_ivp

    def fun(tau, y):  # one state, a list of floats, or a batch (n, 2)
        if type(y) is list:
            return [y[1], -y[0]]
        return np.stack([y[:, 1], -y[:, 0]], axis=1)

    sol = solve_ivp(fun, (0.0, 20.0), [1.0, 0.0], 1e-12)
    assert sol.message is None and sol.event is None and sol.t[-1] == 20.0
    taus = np.linspace(0.0, 20.0, 101)
    exact = np.stack([np.cos(taus), -np.sin(taus)], axis=1)
    assert np.max(np.abs(sol.sol(taus) - exact)) < 1e-10
    # x falls through 0.5 (an upward event) and then through 0 (a downward
    # one): the run ends on the second, at pi / 2
    sol = solve_ivp(fun, (0.0, 20.0), [1.0, 0.0], 1e-12, events=((0, 0.5, 1), (0, 0.0, -1)))
    assert sol.event == 1 and abs(sol.t[-1] - math.pi / 2) < 1e-12 and abs(sol.y[-1, 0]) < 1e-12


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
def test_loose_tolerances_lower_the_order_instead_of_losing_the_orbit(tol):
    # held at high order, a tol of 1e-3 took steps the error estimate could
    # not vouch for and drifted by 4e7; the column floor falls with tol
    params = KerrParams(1.0, 0.99)
    s0 = normalize_velocity(params, BLPoint(0.0, 3.0, math.pi / 2, 0.0, params),
                            (0.0, 0.02, 0.1), "timelike")
    traj = integrate_geodesic(params, s0, 200.0, tol=tol)
    assert traj.plunged and np.max(conserved_drift(params, traj, "timelike")) < 1e3 * tol
