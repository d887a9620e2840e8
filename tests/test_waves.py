import math

import numpy as np
import pytest

from kerrlab import (DomainError, EnergyReport, KerrParams, ModeField2p1,
                     StabilityError, WaveGrid, carter_Q, energy_model3, evolve,
                     initial_data, morawetz_bulk, pointwise_norm,
                     radius_from_tortoise, reduced_wave_apply, symmetry_apply,
                     tortoise_from_radius)
from kerrlab.waves import (_metric_on_grid, assemble_current, box_stack,
                           carter_q_stack, d2_rstar, d_rstar, d_theta,
                           horizon_gap_from_tortoise, lambda_theta_conservative,
                           lambda_theta_trapezoid, polarized_stress,
                           sigma_box_stack)


def make_grid(a=0.5, m_phi=0, n_r=120, n_theta=16, lo=-20.0, hi=30.0):
    return WaveGrid(params=KerrParams(1.0, a), m_phi=m_phi, n_r=n_r,
                    n_theta=n_theta, rstar_min=lo, rstar_max=hi)


@pytest.mark.parametrize("a", [0.0, 0.5, 0.9])
def test_tortoise_roundtrip(a):
    params = KerrParams(1.0, a)
    for r in (params.r_plus + 1e-6, 3.0, 10.0, 150.0):
        rs = tortoise_from_radius(params, r)
        assert abs(radius_from_tortoise(params, rs) - r) < 1e-9 * max(1.0, r)
    # deep-horizon limit: r - r_plus underflows in r itself, but the horizon
    # gap stays positive and monotone in r*
    gap = float(horizon_gap_from_tortoise(params, -80.0))
    assert 0.0 < gap < 1e-6
    assert gap > float(horizon_gap_from_tortoise(params, -90.0)) > 0.0
    assert abs(radius_from_tortoise(params, -80.0) - params.r_plus) <= gap + 1e-15


def test_angular_operator_eigenfunctions():
    grid = make_grid(m_phi=0, n_theta=256)
    # Lambda_theta on the axisymmetric spherical harmonics: eigenvalues -l(l+1)
    psi = np.broadcast_to(np.cos(grid.theta), (grid.n_r, grid.n_theta)).copy()
    lam = lambda_theta_trapezoid(grid, psi.astype(complex))
    assert np.max(np.abs(lam + 2.0 * psi)) < 1e-3
    p2 = 0.5 * (3.0 * np.cos(grid.theta) ** 2 - 1.0)
    psi2 = np.broadcast_to(p2, (grid.n_r, grid.n_theta)).astype(complex).copy()
    lam2 = lambda_theta_trapezoid(grid, psi2)
    assert np.max(np.abs(lam2 + 6.0 * psi2)) < 1e-3


def test_carter_q_spherical_harmonic_m1():
    # Q = Lambda_theta - m^2/sin^2 + a^2 sin^2 d_t^2 on sin(theta), m_phi = 1,
    # static stack: eigenvalue -l(l+1) = -2
    # the singular m^2/sin^2 term makes the pointwise error first order at
    # the pole cells; check the size and the convergence rate
    errs = []
    for n_theta in (256, 512):
        grid = make_grid(m_phi=1, n_theta=n_theta)
        psi = np.broadcast_to(np.sin(grid.theta),
                              (grid.n_r, grid.n_theta)).astype(complex).copy()
        stack = np.array([psi, psi, psi])
        q = carter_q_stack(grid, stack, 0.1)[0]
        errs.append(float(np.max(np.abs(q + 2.0 * psi))))
    assert errs[0] < 1e-2
    assert 1.8 <= errs[0] / errs[1] <= 2.2


def test_sigma_box_equals_r_part_plus_q():
    # Sigma Box splits exactly into a theta-independent radial part plus Q:
    # applying it to a theta-constant field isolates the radial part, and
    # the remainder on a general field must equal Q exactly (discretely)
    grid = make_grid(a=0.7, m_phi=1, n_r=64, n_theta=24)
    rng = np.random.default_rng(3)
    f = rng.normal(size=(grid.n_r, grid.n_theta)) * np.sin(grid.theta)[None, :]
    stack = np.array([f, f, f], dtype=complex)
    total = sigma_box_stack(grid, stack, 0.05)[0]
    q = carter_q_stack(grid, stack, 0.05)[0]
    radial = total - q
    # radial part must be built from r-derivatives only: recompute with a
    # different angular profile but identical radial content is not possible
    # pointwise, so instead check Q-free content: for theta-constant fields
    # Q reduces to -m^2/sin^2 (+ a^2 sin^2 dtt = 0 here)
    g = np.broadcast_to(rng.normal(size=(grid.n_r, 1)), f.shape).astype(complex).copy()
    gs = np.array([g, g, g])
    qg = carter_q_stack(grid, gs, 0.05)[0]
    expected = -grid.m_phi**2 / np.sin(grid.theta)[None, :] ** 2 * g
    assert np.max(np.abs(qg - expected)) < 1e-9 * np.max(np.abs(expected))
    assert np.all(np.isfinite(radial))


def test_evolved_solution_satisfies_reduced_equation():
    grid = make_grid(a=0.5, m_phi=1, n_r=160, n_theta=20)
    psi, psi_t = initial_data(grid, family="gaussian-static", center=5.0, width=3.0)
    field, _ = evolve(ModeField2p1(grid=grid, psi=psi, psi_t=psi_t), t_end=2.0)
    res = reduced_wave_apply(field)
    # the evolved stack satisfies the discrete equation to rounding in the
    # interior (boundaries use the radiation condition instead)
    assert np.max(np.abs(res[3:-3])) < 1e-11 * np.max(np.abs(field.psi))
    q = carter_Q(field)
    assert np.all(np.isfinite(q))


def test_commutator_refinement_order_and_uncorrected_gap():
    # compact version of the Carter commutation check: [Q, Sigma Box] shrinks
    # at second order; [Q, Box] does not (Q commutes with Sigma Box only)
    field_fn = lambda rs, th: np.exp(-rs**2 / 9.0) * np.sin(th) ** 2
    res = {}
    for nr, nth, dt in ((130, 16, 0.1), (260, 32, 0.05)):
        grid = make_grid(a=0.5, m_phi=0, n_r=nr, n_theta=nth, lo=-25.0, hi=40.0)
        f = field_fn(grid.rstar[:, None], grid.theta[None, :])
        stack = np.array([f * np.exp(-0.7j * n * dt) for n in range(-3, 4)])
        for name, op in (("sigma", sigma_box_stack), ("plain", box_stack)):
            x = carter_q_stack(grid, op(grid, stack, dt), dt)[0]
            y = op(grid, carter_q_stack(grid, stack, dt), dt)[0]
            res[(name, nr)] = float(np.max(np.abs(x - y)) / np.max(np.abs(f)))
    order = math.log2(res[("sigma", 130)] / res[("sigma", 260)])
    assert order > 1.8
    assert res[("plain", 260)] > 100.0 * res[("sigma", 260)]


def test_commutator_vanishes_at_zero_spin():
    grid = make_grid(a=0.0, m_phi=0, n_r=100, n_theta=16)
    f = np.exp(-grid.rstar[:, None] ** 2 / 9.0) * np.sin(grid.theta[None, :]) ** 2
    dt = 0.1
    stack = np.array([f * np.exp(-0.7j * n * dt) for n in range(-3, 4)])
    x = carter_q_stack(grid, sigma_box_stack(grid, stack, dt), dt)[0]
    y = sigma_box_stack(grid, carter_q_stack(grid, stack, dt), dt)[0]
    assert np.max(np.abs(x - y)) < 1e-10 * np.max(np.abs(f))


def test_symmetry_apply_time_and_phi_words():
    grid = make_grid(m_phi=2, n_r=32, n_theta=8)
    f = np.ones((grid.n_r, grid.n_theta), dtype=complex)
    dt = 0.1
    stack = np.array([f * np.exp(-0.5j * n * dt) for n in range(-2, 3)])
    dt1 = symmetry_apply(grid, stack, dt, (1, 0, 0))
    # centered difference of exp(-i w t): -i sin(w dt)/dt * f
    w = 0.5
    expected = -1j * math.sin(w * dt) / dt
    assert abs(dt1[dt1.shape[0] // 2][0, 0] - expected) < 1e-12
    dphi = symmetry_apply(grid, stack, dt, (0, 1, 0))
    assert abs(dphi[dphi.shape[0] // 2][0, 0] - 2j) < 1e-12
    with pytest.raises(DomainError):
        symmetry_apply(grid, stack, dt, (2, 0, 1))


def test_pointwise_norm_counts_words():
    grid = make_grid(m_phi=0, n_r=32, n_theta=8)
    f = np.ones((grid.n_r, grid.n_theta), dtype=complex)
    stack = np.array([f] * 5)
    n0 = pointwise_norm(grid, stack, 0.1, 0)
    assert np.allclose(n0, 1.0)
    # static constant field: d_t, d_phi words vanish, Q reduces to 0 for m=0
    n2 = pointwise_norm(grid, stack, 0.1, 2)
    assert np.allclose(n2, 1.0, atol=1e-10)


def test_energy_and_bulk_positive_and_scale_quadratically():
    grid = make_grid(a=0.1, m_phi=1, n_r=120, n_theta=16)
    psi, psi_t = initial_data(grid, family="gaussian-wide", center=5.0, width=3.0)
    field, _ = evolve(ModeField2p1(grid=grid, psi=psi, psi_t=psi_t), t_end=1.0)
    stack, dt = field.history
    e = energy_model3(grid, stack, dt)
    b = morawetz_bulk(grid, stack, dt)
    assert e > 0 and b > 0
    e9 = energy_model3(grid, 3.0 * stack, dt)
    assert abs(e9 - 9.0 * e) < 1e-9 * e9


def test_evolve_reports_from_one_diagnostics_pass(monkeypatch):
    # each report applies the Q word once (one carter_q_stack call) for the
    # energy and the bulk together, and gives the public functions' values
    import kerrlab.waves as waves

    calls = []
    inner = waves.carter_q_stack

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(waves, "carter_q_stack", counted)
    grid = make_grid(a=0.1, m_phi=1, n_r=60, n_theta=8)
    psi, psi_t = initial_data(grid, family="gaussian-wide", center=5.0, width=3.0)
    field, reports = evolve(ModeField2p1(grid=grid, psi=psi, psi_t=psi_t), t_end=1.0)
    assert len(calls) == len(reports) > 1
    # the last report is centred on the final 7-level history
    stack, dt = field.history
    assert reports[-1].e_model3 == energy_model3(grid, stack, dt)
    assert reports[-1].bulk_increment == morawetz_bulk(grid, stack, dt)


def test_morawetz_ratio_scaling_invariant():
    grid = make_grid(a=0.1, m_phi=0, n_r=100, n_theta=12)
    psi, psi_t = initial_data(grid, family="gaussian-static", center=5.0, width=3.0)
    _, r1 = evolve(ModeField2p1(grid=grid, psi=psi, psi_t=psi_t), t_end=3.0)
    _, r2 = evolve(ModeField2p1(grid=grid, psi=5.0 * psi, psi_t=5.0 * psi_t), t_end=3.0)
    assert abs(r1[-1].ratio - r2[-1].ratio) < 1e-12 * max(r1[-1].ratio, 1e-30)


def test_polarized_stress_polarization_identity():
    grid = make_grid(a=0.5, m_phi=1, n_r=100, n_theta=12)
    psi, psi_t = initial_data(grid, family="gaussian-static", center=5.0, width=3.0)
    field, _ = evolve(ModeField2p1(grid=grid, psi=psi, psi_t=psi_t), t_end=1.0)
    stack, dt = field.history
    T = polarized_stress(grid, stack[1:6], dt, (0, 0, 0), (0, 0, 0))
    assert np.allclose(T, T.transpose(1, 0, 2, 3), atol=1e-12)
    # symmetric in the two word arguments
    Tab = polarized_stress(grid, stack[1:6], dt, (0, 0, 0), (1, 0, 0))
    Tba = polarized_stress(grid, stack[1:6], dt, (1, 0, 0), (0, 0, 0))
    assert np.allclose(Tab, Tba, atol=1e-11 * max(1.0, np.max(np.abs(Tab))))


def test_assemble_current_shapes_and_divergence_finite():
    grid = make_grid(a=0.5, m_phi=1, n_r=100, n_theta=12)
    psi, psi_t = initial_data(grid, family="gaussian-static", center=5.0, width=3.0)
    field, _ = evolve(ModeField2p1(grid=grid, psi=psi, psi_t=psi_t), t_end=1.0)
    stack, dt = field.history
    coeffs = [((0, 0, 0), (1, 0, 0), 0, lambda r: np.ones_like(r))]
    J, div = assemble_current(grid, stack, dt, coeffs)
    assert J.shape == (4, grid.n_r, grid.n_theta)
    assert math.isfinite(div)


def test_grid_validation():
    with pytest.raises(DomainError):
        make_grid(n_r=8)
    with pytest.raises(DomainError):
        make_grid(lo=10.0, hi=-10.0)


def test_stencils_act_per_level_on_a_stack():
    # every stencil works on the last two axes (r*, theta), so an L-level
    # stack gives the per-level results bit for bit
    grid = make_grid(a=0.5, m_phi=1, n_r=40, n_theta=12)
    rng = np.random.default_rng(11)
    shape = (5, grid.n_r, grid.n_theta)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for op in (d_rstar, d2_rstar, d_theta, lambda_theta_conservative,
               lambda_theta_trapezoid):
        assert np.array_equal(op(grid, stack), np.array([op(grid, s) for s in stack]))
    dt = 0.05
    for op in (sigma_box_stack, carter_q_stack):
        per_level = [op(grid, stack[k - 1:k + 2], dt)[0] for k in range(1, 4)]
        assert np.array_equal(op(grid, stack, dt), np.array(per_level))


def test_stationary_reduced_wave_apply_is_the_spatial_operator():
    # without a history the time-derivative terms vanish: Box psi is
    # (Pi/Delta) (c1 D2 + c2 D1 + c3 Lambda_theta - c4) psi / Sigma
    grid = make_grid(a=0.5, m_phi=1, n_r=40, n_theta=12)
    psi, psi_t = initial_data(grid, family="gaussian-static", center=5.0, width=3.0)
    box = reduced_wave_apply(ModeField2p1(grid=grid, psi=psi, psi_t=psi_t))
    rhs = (grid.c1 * d2_rstar(grid, psi) + grid.c2 * d_rstar(grid, psi)
           + grid.c3 * lambda_theta_conservative(grid, psi) - grid.c4 * psi)
    expected = grid.Pi / grid.delta[:, None] * rhs / grid.sigma
    assert np.allclose(box, expected, rtol=1e-14, atol=0.0)


def test_metric_on_grid_inverts():
    grid = make_grid(a=0.7, m_phi=1, n_r=20, n_theta=8, lo=-5.0, hi=30.0)
    g, ginv = _metric_on_grid(grid, "g"), _metric_on_grid(grid, "ginv")
    assert g.shape == ginv.shape == (4, 4, grid.n_r, grid.n_theta)
    eye = np.einsum("abxy,bcxy->acxy", g, ginv)
    assert np.max(np.abs(eye - np.eye(4)[:, :, None, None])) < 1e-10
    assert np.allclose(g[2, 2], grid.sigma, rtol=1e-14, atol=0.0)


def test_energy_report_rejects_small_negative_values():
    # every field is a sum of non-negative terms: any negative value is a
    # fault, however small the data
    EnergyReport(0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(StabilityError):
        EnergyReport(0.0, -1e-13, 0.0, 0.0, 0.0)
