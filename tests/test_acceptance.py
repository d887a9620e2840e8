"""Acceptance suite: eight numbered criteria, one pass/fail line each
(pytest -v prints one PASSED/FAILED line per criterion test).

Each test states its tolerances inline; none of them may be loosened to
make a run pass.
"""

import math

import numpy as np
import pytest

from kerrlab import (BLPoint, KerrParams, ModeField2p1, WaveGrid,
                     charge_report, cone_containment, conserved_drift,
                     conformal_ky_residual, constraint_residual,
                     dominant_energy_value, evolve, formal_dual_residual,
                     goursat_solve, green_clause_residuals, initial_data,
                     integrate_geodesic, killing_tensor_residual,
                     killing_tensor_residual_fd, killing_yano_residual,
                     killing_yano_residual_fd, kerr_metric,
                     maxwell_divergence_residual, mode_kernel_count,
                     normalize_velocity, photon_orbit_radius, ramp_profile,
                     random_exterior_points, round_sphere_slice, sample,
                     schwarzschild_slice, tetrad_reconstruction_residual,
                     xi_oneform, ConnectionProfile, V_tensor, Grid1p1,
                     DiracData1p1, cauchy_solve, dirac_solve_by_squaring,
                     dirac_solve_direct)
from kerrlab.maxwell import _coulomb_F, _uniform_F
from kerrlab.waves import box_stack, carter_q_stack, sigma_box_stack


def test_criterion_1_geometry_residual_suite():
    # KY, Killing-tensor, conformal-KY, tetrad reconstruction and xi = d/dt
    # all <= 1e-8 at 50 random exterior points for three parameter sets;
    # FD variants converge at order >= 1.9
    for m, a in ((1.0, 0.0), (1.0, 0.5), (1.0, 0.9)):
        params = KerrParams(m, a)
        rng = np.random.default_rng(101)
        pts = random_exterior_points(params, 50, rng)
        for p in pts:
            assert killing_yano_residual(params, p) <= 1e-8
            assert killing_tensor_residual(params, p) <= 1e-8
            assert conformal_ky_residual(params, p) <= 1e-8
            assert tetrad_reconstruction_residual(params, p) <= 1e-8
            ginv = kerr_metric(params, p).g_inv.components.real
            xi_up = ginv @ xi_oneform(params, p).components
            assert np.max(np.abs(xi_up - np.array([1, 0, 0, 0]))) <= 1e-8
        for p in pts[:3]:
            o_ky = math.log2(killing_yano_residual_fd(params, p, 2e-3)
                             / killing_yano_residual_fd(params, p, 1e-3))
            o_kt = math.log2(killing_tensor_residual_fd(params, p, 2e-3)
                             / killing_tensor_residual_fd(params, p, 1e-3))
            assert o_ky >= 1.9 and o_kt >= 1.9


def test_criterion_2_geodesic_integrability():
    # (e, l_z, k, norm) drift <= 1e-9 relative over t = 200 m for 20 random
    # initial conditions; photon orbit at r = 3m +- 1e-6 for a = 0
    rng = np.random.default_rng(202)
    for i in range(20):
        a = rng.uniform(0.0, 0.9)
        params = KerrParams(1.0, a)
        r0 = rng.uniform(6.0, 12.0)
        th0 = rng.uniform(0.7, 2.4)
        pt = BLPoint(0.0, r0, th0, 0.0, params)
        # azimuthal velocity near the circular value (corrected for the
        # latitude) so most orbits stay bound for the full time span
        uphi = rng.uniform(0.9, 1.1) * r0**-1.5 / math.sin(th0) ** 2
        s0 = normalize_velocity(
            params, pt,
            (rng.uniform(-0.05, 0.05), rng.uniform(-0.03, 0.03), uphi),
            "timelike")
        traj = integrate_geodesic(params, s0, 200.0, tol=3e-14)
        if not traj.plunged:
            assert traj.x[-1, 0] >= 200.0 - 1e-6
        drifts = conserved_drift(params, traj, "timelike")
        assert np.max(drifts) <= 1e-9, f"IC {i}: drift {np.max(drifts)}"
    r_ph = photon_orbit_radius(KerrParams(1.0, 0.0), (2.5, 3.5))
    assert abs(r_ph - 3.0) <= 1e-6


def _commutator_residual(grid, dt, field_fn, op):
    rs, th = grid.rstar[:, None], grid.theta[None, :]
    f = field_fn(rs, th)
    stack = np.array([f * np.exp(-0.7j * n * dt) for n in range(-3, 4)])
    x = carter_q_stack(grid, op(grid, stack, dt), dt)[0]
    y = op(grid, carter_q_stack(grid, stack, dt), dt)[0]
    return float(np.max(np.abs(x - y)) / np.max(np.abs(f)))


def test_criterion_3_carter_commutation():
    # ||[Q, Sigma Box] psi||_inf / ||psi||_inf decreases at order >= 1.8
    # under refinement on 5 smooth fields at a = 0.5, while the uncorrected
    # [Q, Box] residual stays > 100x larger
    params = KerrParams(1.0, 0.5)
    fields = [
        lambda rs, th: np.exp(-rs**2 / 9.0) * np.sin(th) ** 2,
        lambda rs, th: np.exp(-(rs - 2) ** 2 / 9.0) * (3 * np.cos(th) ** 2 - 1),
        lambda rs, th: np.exp(-(rs + 2) ** 2 / 9.0) * np.cos(th) * np.sin(th) ** 2,
        lambda rs, th: np.exp(-rs**2 / 16.0) * (1 + 0.5 * np.cos(th)) * np.sin(th) ** 2,
        lambda rs, th: np.exp(-(rs - 1) ** 2 / 9.0) * np.sin(2 * th) ** 2,
    ]
    for fn in fields:
        res = {}
        for nr, nth, dt in ((260, 32, 0.05), (520, 64, 0.025)):
            grid = WaveGrid(params=params, m_phi=0, n_r=nr, n_theta=nth,
                            rstar_min=-25.0, rstar_max=40.0)
            res[("sigma", nr)] = _commutator_residual(grid, dt, fn, sigma_box_stack)
            res[("plain", nr)] = _commutator_residual(grid, dt, fn, box_stack)
        order = math.log2(res[("sigma", 260)] / res[("sigma", 520)])
        assert order >= 1.8, f"order {order}"
        assert res[("plain", 520)] > 100.0 * res[("sigma", 520)]


@pytest.mark.slow
def test_criterion_4_morawetz_surrogate():
    # bulk_cumulative(150m) / E_model,3(0): exactly scale invariant, stable
    # to <= 10% between 400x32 and 800x64 grids, finite with the cutoff on
    for a in (0.0, 0.1):
        for m_phi in (0, 1):
            for family in ("gaussian-static", "gaussian-ingoing",
                           "gaussian-wide"):
                ratios = []
                for n_r, n_theta in ((400, 32), (800, 64)):
                    grid = WaveGrid(params=KerrParams(1.0, a), m_phi=m_phi,
                                    n_r=n_r, n_theta=n_theta,
                                    rstar_min=-80.0, rstar_max=220.0)
                    psi, psi_t = initial_data(grid, family=family,
                                              center=30.0, width=6.0)
                    field = ModeField2p1(grid=grid, psi=psi, psi_t=psi_t)
                    _, reps = evolve(field, t_end=150.0, report_dt=5.0)
                    assert math.isfinite(reps[-1].ratio)
                    ratios.append(reps[-1].ratio)
                    if n_r == 400:
                        scaled = ModeField2p1(grid=grid, psi=3.0 * psi,
                                              psi_t=3.0 * psi_t)
                        _, reps3 = evolve(scaled, t_end=150.0, report_dt=5.0)
                        rel = abs(reps3[-1].ratio - reps[-1].ratio) / reps[-1].ratio
                        assert rel <= 1e-12  # exact under data scaling
                drift = abs(ratios[1] - ratios[0]) / abs(ratios[0])
                assert drift <= 0.10, (a, m_phi, family, drift)


def test_criterion_5_v_tensor_conservation():
    # Coulomb field on Kerr (m=1, a=0.5), 20 random points:
    # div_V_residual <= 1e-5 at step 1e-3, order >= 1.5 under halving,
    # leading-part dominant-energy value nonnegative at all points.
    # The Coulomb field is aligned with the principal null directions, so V
    # vanishes identically and its residual sits at the rounding floor; an
    # order is only measurable above that floor, which is checked instead on
    # the non-aligned uniform-field solution.
    params = KerrParams(1.0, 0.5)
    rng = np.random.default_rng(505)
    pts = random_exterior_points(params, 20, rng, r_range=(None, 10.0))
    floor = 1e-15
    for p in pts:
        rep = V_tensor(params, lambda q: _coulomb_F(params, q), p, step=1e-3)
        assert rep.div_V_residual <= 1e-5
        rep_h2 = V_tensor(params, lambda q: _coulomb_F(params, q), p, step=5e-4)
        if rep.div_V_residual > floor or rep_h2.div_V_residual > floor:
            order = math.log2(rep.div_V_residual / rep_h2.div_V_residual)
            assert order >= 1.5
        g = kerr_metric(params, p).g.components.real
        v = np.array([1.0, 0.0, 0.0, 0.0]) / math.sqrt(-g[0, 0])
        assert dominant_energy_value(params, rep.eta, p, v, v) >= -1e-12
        assert maxwell_divergence_residual(
            params, lambda q: _coulomb_F(params, q), p, step=1e-3) <= 1e-5
    # non-vacuous order check: uniform-field solution has V != 0
    for p in pts[:3]:
        r1 = V_tensor(params, lambda q: _uniform_F(params, q), p, step=2e-3)
        r2 = V_tensor(params, lambda q: _uniform_F(params, q), p, step=1e-3)
        assert r2.div_V_residual <= 1e-5
        assert math.log2(r1.div_V_residual / r2.div_V_residual) >= 1.5


def _bump(x, center, radius):
    d = np.angle(np.exp(1j * (x - center)))
    s = np.clip(np.abs(d) / radius, 0.0, 1.0)
    out = np.zeros_like(s)
    inside = s < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def _grid1p1(n_x, T=1.5, cfl=0.85):
    h_x = 2.0 * math.pi / n_x
    return Grid1p1(T=T, n_x=n_x, n_t=int(math.ceil(T / (cfl * h_x))))


def test_criterion_6_hyperbolic_solution_theory():
    # cauchy/goursat/dirac-squaring orders in [1.8, 2.2]; Green's clauses to
    # discretization order with <= 2-cell cone collar; formal-dual residual
    # <= 1e-6 at N_x = 256
    # cauchy
    errs = []
    for n_x in (64, 128):
        g = _grid1p1(n_x, T=1.0, cfl=0.8)
        u = cauchy_solve(g, u0=np.sin(g.x), u1=np.zeros(g.n_x))
        exact = np.cos(g.t)[:, None] * np.sin(g.x)[None, :]
        errs.append(float(np.max(np.abs(u - exact))))
    assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2
    # goursat
    f_null = lambda t, x: 4.0 * math.cos(t - x) * math.cos(t + x)
    errs = []
    for n in (32, 64):
        field = goursat_solve(lambda u: 0.0, lambda v: 0.0, 1.0, n, f=f_null)
        exact = np.sin(field.uu[:, None]) * np.sin(field.vv[None, :])
        errs.append(float(np.max(np.abs(field.phi - exact))))
    assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2
    # dirac squaring vs direct oracle
    twist = lambda t: 0.3 + 0.2 * math.sin(t)
    source = lambda t, x: np.array([np.cos(x + t), 0.2 * np.sin(2 * x - t)])
    errs = []
    for n_x in (64, 128):
        g = _grid1p1(n_x, T=1.0, cfl=0.8)
        u0 = np.array([np.sin(g.x), np.cos(2 * g.x)], dtype=complex)
        data = DiracData1p1(u0=u0, f=source, connection=twist)
        errs.append(float(np.max(np.abs(dirac_solve_by_squaring(data, g)
                                        - dirac_solve_direct(data, g)))))
    assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2
    # Green's clauses (i)-(iii) with cone containment
    g = _grid1p1(256)

    def src(t, x):
        t_c, t_r = 0.5 * g.T, 0.18 * g.T
        s = np.clip(np.abs(t - t_c) / t_r, 0.0, 1.0)
        env = np.where(s < 1.0,
                       np.exp(1.0 - 1.0 / (1.0 - np.minimum(s, 0.999999) ** 2)),
                       0.0)
        return env * _bump(x, math.pi, 0.5)

    f = sample(g, src)
    res = green_clause_residuals(g, f)
    for key in ("GP_retarded", "PG_retarded", "GP_advanced", "PG_advanced",
                "propagator_kernel"):
        assert res[key] <= 1e-10, (key, res[key])
    assert res["support_retarded"] <= 0.0  # within the 2-cell collar
    assert res["support_advanced"] <= 0.0
    # cone containment of Cauchy data at the 2-cell collar
    gc = _grid1p1(256, T=1.5, cfl=0.9)
    u = cauchy_solve(gc, u0=_bump(gc.x, math.pi, 0.4).astype(complex),
                     u1=np.zeros(gc.n_x))
    assert cone_containment(gc, u, center=math.pi, radius0=0.4) <= 0.0
    # formal dual
    phi = np.roll(f, g.n_x // 5, axis=1) * np.exp(1j * 0.3)
    assert formal_dual_residual(g, f, phi) <= 1e-6


def test_criterion_7_index_theorem():
    # all 14 calibration profiles: index_lhs = round(index_rhs) exactly,
    # |index_rhs - integer| <= 1e-9, homotopy invariance, q_left + q_right
    # = 0, and q_chiral = -2 flux when the eta/h terms cancel
    for flux in range(-3, 4):
        for frac in (0.0, 0.3):
            rep = charge_report(ramp_profile(frac, frac + flux))
            assert rep.index_lhs == round(rep.index_rhs)
            assert abs(rep.index_rhs - round(rep.index_rhs)) <= 1e-9
            assert abs(rep.q_left + rep.q_right) <= 1e-12
            if frac != 0.0:
                assert abs(rep.q_chiral + 2.0 * flux) <= 1e-9
    # homotopy invariance: same endpoints, different interior path
    def wiggly(t):
        s = min(max((t - 0.5) / 9.0, 0.0), 1.0)
        ease = s**3 * (10 - 15 * s + 6 * s**2)
        return 0.3 + ease + 0.3 * math.sin(math.pi * ease) * ease * (1 - ease)

    ra = charge_report(ramp_profile(0.3, 1.3))
    rb = charge_report(ConnectionProfile(a=wiggly, T=10.0, collar=True))
    assert ra.as_dict() == pytest.approx(rb.as_dict(), abs=1e-9)
    # frozen examples
    assert ra.dim_ker_aps == 1 and ra.dim_ker_aaps == 0
    r2 = charge_report(ramp_profile(0.3, -1.7))
    assert r2.dim_ker_aps == 0 and r2.dim_ker_aaps == 2 and r2.index_lhs == -2


def test_criterion_8_constraint_residuals():
    # Schwarzschild time-symmetric slice: residual refines at order >= 1.9;
    # unit round 3-sphere flagged non-vacuum with hamiltonian residual
    # 6 +- 1e-3
    data = schwarzschild_slice(1.0)
    pts = [np.array([4.0, 1.1, 0.2]), np.array([6.0, 2.0, 1.0])]
    # steps chosen above the rounding floor (~5e-11) of the stencil
    h1 = np.max(np.abs(constraint_residual(data, pts, step=2e-2)[0]))
    h2 = np.max(np.abs(constraint_residual(data, pts, step=1e-2)[0]))
    assert math.log2(h1 / h2) >= 1.9
    assert h2 <= 1e-6
    sphere = round_sphere_slice(1.0)
    spts = [np.array([1.2, 1.0, 0.5]), np.array([1.8, 2.0, 3.0])]
    hams, _ = constraint_residual(sphere, spts, step=1e-3)
    assert np.max(np.abs(hams - 6.0)) <= 1e-3
