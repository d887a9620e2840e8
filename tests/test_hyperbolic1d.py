import math
import tracemalloc

import numpy as np
import pytest

from kerrlab import (DiracData1p1, DomainError, Grid1p1, apply_dirac,
                     apply_wave_operator, cauchy_solve, causal_propagator,
                     cone_containment, dirac_solve_by_squaring,
                     dirac_solve_direct, formal_dual_residual, goursat_solve,
                     green, green_clause_residuals, hyperbolic1d, sample,
                     support_radius)
from kerrlab._stencils import _diff
from kerrlab.cli import main


def make_grid(n_x, T=1.0, cfl=0.8):
    h_x = 2.0 * math.pi / n_x
    n_t = int(math.ceil(T / (cfl * h_x)))
    return Grid1p1(T=T, n_x=n_x, n_t=n_t)


def bump(x, center, radius):
    d = np.angle(np.exp(1j * (x - center)))
    s = np.clip(np.abs(d) / radius, 0.0, 1.0)
    out = np.zeros_like(s)
    inside = s < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid1p1(T=1.0, n_x=8, n_t=100)
    with pytest.raises(DomainError):
        Grid1p1(T=1.0, n_x=64, n_t=3)  # cfl above 0.9
    with pytest.raises(DomainError):
        Grid1p1(T=1.0, n_x=64, n_t=10**18)  # refused before anything is allocated
    with pytest.raises(DomainError):
        goursat_solve(lambda u: 0.0, lambda v: 0.0, 1.0, 10**18)


def test_cauchy_convergence_against_separable_solution():
    # u = cos(t) sin(x) solves u_tt - u_xx + V u = 0 with V = 0? No:
    # u_tt - u_xx = (-cos t + cos t) sin x = 0, so it is source-free
    errs = []
    for n_x in (64, 128):
        g = make_grid(n_x)
        u = cauchy_solve(g, u0=np.sin(g.x), u1=np.zeros(g.n_x))
        exact = np.cos(g.t)[:, None] * np.sin(g.x)[None, :]
        errs.append(float(np.max(np.abs(u - exact))))
    order = math.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2


def test_cauchy_with_potential_and_source():
    # manufactured: u = sin(t) cos(x), V(x) = 1 + cos^2(x)
    # f = u_tt - u_xx + V u = (-1 + 1 + V) u = V u... careful:
    # u_tt = -sin t cos x, u_xx = -sin t cos x -> u_tt - u_xx = 0, f = V u
    V = lambda x: 1.0 + np.cos(x) ** 2
    errs = []
    for n_x in (64, 128):
        g = make_grid(n_x)
        exact = np.sin(g.t)[:, None] * np.cos(g.x)[None, :]
        f = V(g.x)[None, :] * exact
        u = cauchy_solve(g, f=f, u0=np.zeros(g.n_x), u1=np.cos(g.x), potential=V)
        errs.append(float(np.max(np.abs(u - exact))))
    order = math.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2


def test_goursat_linear_exact():
    field = goursat_solve(lambda u: u, lambda v: v, 1.0, 32)
    exact = field.uu[:, None] + field.vv[None, :]
    assert np.max(np.abs(field.phi - exact)) < 1e-13


def test_goursat_order_and_vertex_check():
    f = lambda t, x: 4.0 * math.cos(t - x) * math.cos(t + x)
    errs = []
    for n in (32, 64):
        field = goursat_solve(lambda u: 0.0, lambda v: 0.0, 1.0, n, f=f)
        exact = np.sin(field.uu[:, None]) * np.sin(field.vv[None, :])
        errs.append(float(np.max(np.abs(field.phi - exact))))
    assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2
    with pytest.raises(DomainError):
        goursat_solve(lambda u: 1.0, lambda v: 0.0, 1.0, 32)


def _goursat_per_cell(f, extent, n):
    # the row loop with one scalar source call per cell, vanishing ray data
    h = extent / n
    um = ((np.arange(n + 1) * h)[:-1] + 0.5 * h).tolist()
    phi = np.zeros((n + 1, n + 1), dtype=complex)
    column_sums = np.zeros(n, dtype=complex)
    for i, u in enumerate(um):
        column_sums += [f(0.5 * (u + v), 0.5 * (v - u)) / 4.0 for v in um]
        phi[i + 1, 1:] += h * h * np.cumsum(column_sums)
    return phi


@pytest.mark.parametrize("f", [
    lambda t, x: t * t - 3.0 * x + 0.5j * t * x,  # takes arrays: one call
    lambda t, x: 4.0 * math.cos(t - x) * math.cos(t + x),  # floats only
    lambda t, x: 0.0,  # a scalar for any input
    lambda t, x: 1.0 if t > 0.5 else 0.0,  # branches on a float
    # real on the first block of u-rows at n = 300 (t < 0.56 there), complex
    # from t = 0.6 on: phi turns complex at the first complex block
    lambda t, x: 0.5 * t if t < 0.6 else 0.5 * t + 1j * x,
], ids=["array", "math", "constant", "branching", "complex_later"])
def test_goursat_source_forms_match_the_per_cell_loop(f):
    rows = hyperbolic1d.GOURSAT_BLOCK_CELLS // 300
    assert 300 // rows >= 2 and 300 % rows  # n = 300: several blocks of u-rows, the last one short
    for extent, n in ((1.0, 32), (0.937, 57), (0.9371, 300)):
        field = goursat_solve(lambda u: 0.0, lambda v: 0.0, extent, n, f=f)
        assert np.array_equal(field.phi, _goursat_per_cell(f, extent, n))


@pytest.mark.parametrize("f", [
    lambda t, x: 4.0 * np.cos(t - x) * np.cos(t + x),  # takes arrays
    lambda t, x: 1.0 if t > 0.5 else 0.0,  # floats only: one call per cell
], ids=["array", "floats"])
def test_goursat_holds_little_besides_phi(f):
    # the lattice is marched in blocks of u-rows: no second (n + 1)^2 array
    tracemalloc.start()
    try:
        phi = goursat_solve(lambda u: 0.0, lambda v: 0.0, 1.0, 1024, f=f).phi
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * phi.nbytes


def test_solvers_commute_with_rotations_of_the_circle():
    # a shift along x is an exact symmetry of the periodic lattice: every
    # stencil must sum the same neighbours in the same order at every node
    g = make_grid(48, T=1.0)
    twist = lambda t: 0.3 + 0.2 * math.sin(t)
    rng = np.random.default_rng(11)
    f = rng.normal(size=(g.n_t + 1, g.n_x)) + 1j * rng.normal(size=(g.n_t + 1, g.n_x))
    u0, u1 = (rng.normal(size=g.n_x) + 1j * rng.normal(size=g.n_x) for _ in range(2))
    u = cauchy_solve(g, f=f, u0=u0, u1=u1, twist=twist)
    Pu = apply_wave_operator(g, u, twist=twist)
    for shift in (1, 5, -7):
        roll = lambda v: np.roll(v, shift, axis=-1)
        assert np.array_equal(cauchy_solve(g, f=roll(f), u0=roll(u0), u1=roll(u1), twist=twist),
                              roll(u))
        assert np.array_equal(apply_wave_operator(g, roll(u), twist=twist), roll(Pu))


def test_dirac_squaring_matches_direct_with_twist():
    twist = lambda t: 0.3 + 0.2 * math.sin(t)
    source = lambda t, x: np.array([np.cos(x + t), 0.2 * np.sin(2 * x - t)])
    errs = []
    for n_x in (64, 128):
        g = make_grid(n_x)
        u0 = np.array([np.sin(g.x), np.cos(2 * g.x)], dtype=complex)
        data = DiracData1p1(u0=u0, f=source, connection=twist)
        u_sq = dirac_solve_by_squaring(data, g)
        u_dir = dirac_solve_direct(data, g)
        errs.append(float(np.max(np.abs(u_sq - u_dir))))
    assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2


def test_dirac_squaring_satisfies_equation():
    twist = lambda t: 0.4
    source = lambda t, x: np.array([np.cos(x), np.sin(x) * 0.0])
    g = make_grid(96)
    u0 = np.array([np.sin(g.x), np.cos(g.x)], dtype=complex)
    data = DiracData1p1(u0=u0, f=source, connection=twist)
    u = dirac_solve_by_squaring(data, g)
    Du = apply_dirac(twist, g, u)
    fs = data.source_samples(g)[1:-1]
    err = np.max(np.abs(Du - fs))
    # the solution itself is second-order accurate; the centered-difference
    # residual of an O(h^2) error field loses one order, so it shrinks at
    # first order
    g2 = make_grid(192)
    u0b = np.array([np.sin(g2.x), np.cos(g2.x)], dtype=complex)
    u2 = dirac_solve_by_squaring(DiracData1p1(u0=u0b, f=source, connection=twist), g2)
    err2 = np.max(np.abs(apply_dirac(twist, g2, u2)
                         - DiracData1p1(u0=u0b, f=source, connection=twist).source_samples(g2)[1:-1]))
    assert 0.8 <= math.log2(err / err2) <= 2.3
    assert err2 < 0.05


def source_field(g):
    t_c, t_r = 0.5 * g.T, 0.18 * g.T

    def f(t, x):
        s = np.clip(np.abs(t - t_c) / t_r, 0.0, 1.0)
        env = np.where(s < 1.0,
                       np.exp(1.0 - 1.0 / (1.0 - np.minimum(s, 0.999999) ** 2)), 0.0)
        return env * bump(x, math.pi, 0.5)

    return sample(g, f)


def test_green_clauses_machine_level():
    g = make_grid(128, T=1.5, cfl=0.85)
    f = source_field(g)
    res = green_clause_residuals(g, f)
    assert res["PG_retarded"] < 1e-10
    assert res["GP_retarded"] < 1e-10
    assert res["PG_advanced"] < 1e-10
    assert res["GP_advanced"] < 1e-10
    assert res["propagator_kernel"] < 1e-10
    assert res["support_retarded"] <= 0.0
    assert res["support_advanced"] <= 0.0


def test_green_clauses_solve_each_green_problem_once(monkeypatch, tmp_path):
    # G_+ f, G_- f, G_+ P f and G_- P f in one march of four problems; the
    # propagator is G_+ f - G_- f.  `green` marches those of both of its
    # potentials (none, and potential (1 + cos x)) at once: eight problems
    marches = []

    def counted(grid, f=None, **kwargs):
        marches.append(f.shape)
        return cauchy_solve(grid, f=f, **kwargs)

    monkeypatch.setattr("kerrlab.hyperbolic1d.cauchy_solve", counted)
    g = make_grid(64, T=1.5, cfl=0.85)
    green_clause_residuals(g, source_field(g))
    assert marches == [(g.n_t + 1, 4, g.n_x)]
    marches.clear()
    assert main(["green", "--potential=0.5", "--out", str(tmp_path / "r.json")]) == 0
    assert [shape[1] for shape in marches] == [8]


def green_clause_residuals_reference(g, f, potential=None):
    # the clauses from four separate `green` solves, the advanced ones
    # time-reflected inside `green`: the loop that the stacked march replaced
    scale = float(np.max(np.abs(f)))
    nz_t = np.where(np.max(np.abs(f), axis=1) > 0)[0]
    xs = g.x[np.max(np.abs(f), axis=0) > 0]
    center = float(np.angle(np.mean(np.exp(1j * xs))) % (2.0 * math.pi))
    radius0 = max(support_radius(np.max(np.abs(f), axis=0), g.x, center, 0.0), g.h_x)
    Pf = np.zeros_like(f)
    Pf[1:-1] = apply_wave_operator(g, f, potential=potential)
    out, solutions, n = {}, {}, np.arange(g.n_t + 1)
    for direction in ("retarded", "advanced"):
        u = solutions[direction] = green(g, direction, f, potential)
        Pu = apply_wave_operator(g, u, potential=potential)
        out[f"PG_{direction}"] = float(np.max(np.abs(Pu - f[1:-1])) / scale)
        out[f"GP_{direction}"] = float(np.max(np.abs(green(g, direction, Pf, potential) - f)) / scale)
        thr = 1e-3 * max(float(np.max(np.abs(u))), scale)
        gap = ((n - nz_t[0]) if direction == "retarded" else (nz_t[-1] - n)) * g.h_t
        allowed = np.where(gap < 0, np.where(np.max(np.abs(u), axis=1) > thr, 0.0, math.pi),
                           np.minimum(radius0 + gap + 2 * g.h_x, math.pi))
        rad = support_radius(u, g.x, center, thr)
        out[f"support_{direction}"] = float(np.max((rad - allowed) / g.h_x))
    Pg = apply_wave_operator(g, solutions["retarded"] - solutions["advanced"], potential=potential)
    out["propagator_kernel"] = float(np.max(np.abs(Pg)) / scale)
    return out


@pytest.mark.parametrize("complex_source", [False, True], ids=["real", "complex"])
def test_stacked_green_clauses_equal_those_of_separate_solves(complex_source):
    # one march of the Green problems of every potential gives, key for key
    # and in the same order, the residuals of four separate `green` calls
    g = make_grid(64, T=1.5, cfl=0.85)
    rng = np.random.default_rng(45)
    f = source_field(g) * rng.uniform(0.5, 2.0, size=g.n_x)
    if complex_source:
        f = f * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=g.n_x))
    potentials = [None] + [lambda x, c=c: c * (1.0 + np.cos(x)) for c in rng.uniform(0.2, 1.0, 2)]
    reports = hyperbolic1d._green_clause_residuals(g, f, potentials)
    assert len(reports) == 3
    for potential, report in zip(potentials, reports):
        reference = green_clause_residuals_reference(g, f, potential)
        assert list(report.items()) == list(reference.items())
        assert green_clause_residuals(g, f, potential) == report
    # every stacked source passes green's support check, P f as well as f
    late = np.zeros_like(f)
    late[-3, 5] = 1.0  # inside the collar, but P f reaches level n_t - 1
    green(g, "retarded", late)
    with pytest.raises(DomainError, match="touches the temporal boundary"):
        hyperbolic1d._green_clause_residuals(g, late, potentials)


def test_green_source_collar_enforced():
    g = make_grid(64, T=1.0)
    f = np.zeros((g.n_t + 1, g.n_x))
    f[0, 0] = 1.0  # touches the temporal boundary
    with pytest.raises(DomainError):
        green(g, "retarded", f)


def test_causal_propagator_antisymmetric_under_time_reflection():
    g = make_grid(96, T=1.2, cfl=0.85)
    f = source_field(g)
    # time-symmetric source about T/2: G f is time-antisymmetric
    gf = causal_propagator(g, f)
    assert np.max(np.abs(gf + gf[::-1])) < 1e-10 * max(1.0, np.max(np.abs(gf)))


def test_cone_containment_of_cauchy_data():
    g = make_grid(256, T=1.5, cfl=0.9)
    u0 = bump(g.x, math.pi, 0.4).astype(complex)
    u = cauchy_solve(g, u0=u0, u1=np.zeros(g.n_x))
    excess = cone_containment(g, u, center=math.pi, radius0=0.4)
    assert excess <= 0.0  # within the 2-cell collar


def test_formal_dual_residual_machine_level():
    g = make_grid(256, T=1.5, cfl=0.85)
    f = source_field(g)
    phi = np.roll(f, g.n_x // 5, axis=1) * np.exp(1j * 0.3)
    res = formal_dual_residual(g, f, phi)
    assert res <= 1e-6
    bad = f.copy()
    bad[0] = 1.0
    with pytest.raises(DomainError):
        formal_dual_residual(g, bad, phi)


def test_apply_wave_operator_inverts_cauchy_solve():
    # the implicit twist step solves the centered stencil exactly, so P undoes
    # the solve to rounding with or without a twist
    g = make_grid(64, T=1.0)
    f = source_field(g)
    for twist in (None, lambda t: 0.3 + 0.2 * math.sin(t)):
        u = cauchy_solve(g, f=f, twist=twist)
        Pu = apply_wave_operator(g, u, twist=twist)
        assert np.max(np.abs(Pu - f[1:-1])) < 1e-11 * max(1.0, np.max(np.abs(f)))


# The formulas the stencil table replaced along x, where hyperbolic1d applies
# it periodically: u at x + k h is np.roll(u, -k).  The table itself, along
# an axis at the points where an entry fits, is tested in test_stencils.py.
def _at(u, k):
    return np.roll(u, -k, axis=-1)


REFERENCE_X = {
    "d1": lambda u, h: (_at(u, 1) - _at(u, -1)) / (2.0 * h),
    "d2": lambda u, h: (_at(u, 1) - 2.0 * u + _at(u, -1)) / h**2,
    "d1_4": lambda u, h: (-_at(u, 2) + 8.0 * _at(u, 1) - 8.0 * _at(u, -1) + _at(u, -2)) / (12.0 * h),
    "d2_4": lambda u, h: (-_at(u, 2) + 16.0 * _at(u, 1) - 30.0 * u + 16.0 * _at(u, -1)
                          - _at(u, -2)) / (12.0 * h**2),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_X))
@pytest.mark.parametrize("shape", [(40,), (9, 40), (9, 2, 40)])
def test_each_stencil_matches_its_formula_bit_for_bit(name, shape):
    rng = np.random.default_rng(len(shape))
    u = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h = 2.0 * math.pi / 40
    assert np.array_equal(hyperbolic1d._dx(u, name, h), REFERENCE_X[name](u, h))


def support_radius_reference(u_slice, x, center, threshold):
    mask = np.abs(u_slice) > threshold
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs((x[mask] - center + math.pi) % (2.0 * math.pi) - math.pi)))


def test_support_radius_of_a_slab_is_the_radius_of_each_level():
    rng = np.random.default_rng(3)
    x = make_grid(64).x
    u = rng.normal(size=(30, 64)) * (rng.random((30, 64)) < 0.2)
    u[[0, 7]] = 0.0  # levels with no support
    rad = support_radius(u, x, 1.3, 0.5)
    assert rad.shape == (30,)
    assert np.array_equal(rad, [support_radius_reference(row, x, 1.3, 0.5) for row in u])
    assert all(type(support_radius(row, x, 1.3, 0.5)) is float for row in u)


def test_cone_containment_matches_the_loop_over_levels():
    g = make_grid(128, T=1.5, cfl=0.9)
    u = cauchy_solve(g, u0=bump(g.x, 2.0, 0.4).astype(complex), u1=np.zeros(g.n_x))
    thresh = 1e-3 * np.max(np.abs(u))
    worst = max((support_radius_reference(u[n], g.x, 2.0, thresh)
                 - min(0.4 + n * g.h_t + 2 * g.h_x, math.pi)) / g.h_x
                for n in range(g.n_t + 1))
    assert cone_containment(g, u, 2.0, 0.4) == worst


@pytest.mark.parametrize("noise", [0.0, 1e-2])
def test_support_clauses_match_the_loop_over_levels(monkeypatch, noise):
    # with noise, G f has support before the source and outside the cone
    g = make_grid(64, T=1.5, cfl=0.85)
    f = source_field(g)
    rng = np.random.default_rng(5)
    jitter = noise * rng.normal(size=f.shape) * (rng.random(f.shape) < 0.05)
    jittered = {direction: green(g, direction, f) + jitter for direction in ("retarded", "advanced")}
    exact = hyperbolic1d.cauchy_solve

    def solve(*args, **kwargs):
        # the march of G_+ f, G_+ P f and both time-reflected: each solution,
        # once reflected back, carries the jitter
        out = exact(*args, **kwargs)
        assert out.shape == (g.n_t + 1, 4, g.n_x)
        out[:, :2] += jitter[:, None]
        out[:, 2:] += jitter[::-1, None]
        return out

    monkeypatch.setattr(hyperbolic1d, "cauchy_solve", solve)
    res = green_clause_residuals(g, f)

    scale = np.max(np.abs(f))
    nz_t = np.where(np.max(np.abs(f), axis=1) > 0)[0]
    xs = g.x[np.max(np.abs(f), axis=0) > 0]
    center = float(np.angle(np.mean(np.exp(1j * xs))) % (2.0 * math.pi))
    radius0 = max(support_radius_reference(np.max(np.abs(f), axis=0), g.x, center, 0.0), g.h_x)
    for direction in ("retarded", "advanced"):
        u = jittered[direction]
        thr = 1e-3 * max(float(np.max(np.abs(u))), scale)
        worst = -np.inf
        for n in range(g.n_t + 1):
            gap = ((n - nz_t[0]) if direction == "retarded" else (nz_t[-1] - n)) * g.h_t
            allowed = min(radius0 + max(gap, 0.0) + 2 * g.h_x, math.pi)
            if gap < 0:
                allowed = 0.0 if np.max(np.abs(u[n])) > thr else math.pi
            worst = max(worst, (support_radius_reference(u[n], g.x, center, thr) - allowed) / g.h_x)
        assert res[f"support_{direction}"] == worst
        assert (worst > 0.0) == (noise > 0.0)


def _same_as_complex_run(real, cplx):
    # a real problem is held in float64, bit for bit the real part of the same
    # problem held in complex128, whose imaginary part is exactly zero
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    assert real.tobytes() == np.ascontiguousarray(cplx.real).tobytes()
    assert not np.any(cplx.imag)


def test_real_cauchy_data_stay_real():
    g = make_grid(48, T=1.0)
    rng = np.random.default_rng(41)
    f = rng.normal(size=(g.n_t + 1, g.n_x))
    u0, u1 = rng.normal(size=(2, g.n_x))
    c = rng.uniform(0.2, 1.0, size=2)
    V = lambda x: c[0] + c[1] * np.cos(x)
    u = cauchy_solve(g, f=f, u0=u0, u1=u1, potential=V)
    _same_as_complex_run(u, cauchy_solve(g, f=f.astype(complex), u0=u0, u1=u1, potential=V))
    _same_as_complex_run(apply_wave_operator(g, u, potential=V),
                         apply_wave_operator(g, u.astype(complex), potential=V))
    # a twist makes the problem complex, whatever its data
    twist = lambda t: 0.3 + 0.2 * math.sin(t)
    assert cauchy_solve(g, f=f, u0=u0, u1=u1, twist=twist).dtype == np.complex128
    assert apply_wave_operator(g, u, twist=twist).dtype == np.complex128


def test_real_green_problems_stay_real():
    g = make_grid(64, T=1.5, cfl=0.85)
    rng = np.random.default_rng(42)
    f = source_field(g) * rng.uniform(0.5, 2.0, size=g.n_x)
    assert f.dtype == np.float64
    c = rng.uniform(0.2, 1.0)
    V = lambda x: c * (1.0 + np.cos(x))
    for direction in ("retarded", "advanced"):
        _same_as_complex_run(green(g, direction, f, V), green(g, direction, f.astype(complex), V))
    assert green_clause_residuals(g, f, V) == green_clause_residuals(g, f.astype(complex), V)


def test_real_goursat_data_stay_real():
    rng = np.random.default_rng(43)
    c = rng.normal(size=5)
    p = lambda u: c[0] + c[1] * u + c[2] * u * u
    q = lambda v: c[0] + c[3] * math.sin(v)
    f = lambda t, x: c[4] * np.cos(2.0 * t - x) + t * x
    n = 300  # several blocks of u-rows
    real = goursat_solve(p, q, 0.9, n, f=f).phi
    cplx = goursat_solve(lambda u: complex(p(u)), lambda v: complex(q(v)), 0.9, n,
                         f=lambda t, x: f(t, x) + 0j).phi
    _same_as_complex_run(real, cplx)
    # real ray data with a complex source: phi is complex
    assert goursat_solve(p, q, 0.9, n, f=lambda t, x: f(t, x) + 0j).phi.dtype == np.complex128


@pytest.mark.parametrize("kind", ["real", "complex", "twisted"])
def test_a_stack_of_cauchy_problems_equals_each_solve(kind):
    # k problems marched at once, each with its own potential or one shared
    # potential: each equals its own solve, bit for bit, in the same dtype
    g = make_grid(48, T=1.0)
    rng = np.random.default_rng(46)
    k = 3
    f = rng.normal(size=(g.n_t + 1, k, g.n_x))
    u0, u1 = rng.normal(size=(2, k, g.n_x))
    if kind == "complex":
        f = f + 1j * rng.normal(size=f.shape)
    twist = (lambda t: 0.3 + 0.2 * math.sin(t)) if kind == "twisted" else None
    potentials = [None] + [lambda x, c=c: c * (1.0 + np.cos(x)) for c in rng.uniform(0.2, 1.0, k - 1)]
    for potential in (potentials, potentials[1]):
        stacked = cauchy_solve(g, f=f, u0=u0, u1=u1, potential=potential, twist=twist)
        assert stacked.shape == (g.n_t + 1, k, g.n_x)
        assert stacked.dtype == (np.float64 if kind == "real" else np.complex128)
        for j in range(k):
            own = potential[j] if isinstance(potential, list) else potential
            alone = cauchy_solve(g, f=f[:, j], u0=u0[j], u1=u1[j], potential=own, twist=twist)
            assert alone.dtype == stacked.dtype
            assert np.array_equal(stacked[:, j], alone), j
    # initial data alone set the stack; a list of potentials needs one per problem
    assert cauchy_solve(g, u1=u1, twist=twist).shape == (g.n_t + 1, k, g.n_x)
    with pytest.raises(DomainError, match="one per problem"):
        cauchy_solve(g, f=f, potential=potentials[:2])
    with pytest.raises(DomainError, match=r"initial data must have shape \(3, 48\)"):
        cauchy_solve(g, f=f, u0=u0[0])


def test_dirac_squaring_equals_a_solve_of_each_component():
    # both spinor components of D^2 v = f are marched at once; each equals
    # the scalar solve of that component alone, and so does u = D v
    twist = lambda t: 0.3 + 0.2 * math.sin(t)
    source = lambda t, x: np.array([np.cos(x + t), 0.2 * np.sin(2 * x - t)])
    g = make_grid(64)
    u0 = np.array([np.sin(g.x), np.cos(2 * g.x)], dtype=complex)
    for data in (DiracData1p1(u0=u0, f=source, connection=twist), DiracData1p1(u0=u0)):
        fs = data.source_samples(g)
        v1 = -np.einsum("ab,bx->ax", hyperbolic1d.SIGMA_INV, data.u0)
        v = np.stack([cauchy_solve(g, f=None if fs is None else -fs[:, c], u1=v1[c],
                                   twist=data.connection) for c in range(2)], axis=1)
        a = hyperbolic1d._twist(data.connection, g.t, g.h_t)[0]
        u = hyperbolic1d._dirac(a, v, _diff(v, "d1", g.h_t, end="d1_end"), g.h_x)
        assert np.array_equal(dirac_solve_by_squaring(data, g), u)
