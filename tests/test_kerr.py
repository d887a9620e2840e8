import math

import numpy as np
import pytest

from kerrlab import (BLPoint, DomainError, KerrParams, carter_tensor,
                     conformal_ky_residual, kappa_scalars, kerr_metric,
                     killing_tensor_residual, killing_tensor_residual_fd,
                     killing_yano_residual, killing_yano_residual_fd,
                     principal_tetrad, random_exterior_points,
                     tetrad_reconstruction_residual, xi_oneform)
from kerrlab.kerr import _at

PARAM_SETS = [KerrParams(1.0, 0.0), KerrParams(1.0, 0.5), KerrParams(1.0, 0.9)]


def test_superextreme_rejected():
    with pytest.raises(DomainError):
        KerrParams(1.0, 1.0)
    with pytest.raises(DomainError):
        KerrParams(1.0, 1.5)
    with pytest.raises(DomainError):
        KerrParams(-1.0, 0.0)


def test_schwarzschild_metric_closed_form():
    p = KerrParams(1.0, 0.0)
    pt = BLPoint(0.0, 4.0, math.pi / 2, 0.0, p)
    g = kerr_metric(p, pt).g.components.real
    assert np.allclose(np.diag(g), [-0.5, 2.0, 16.0, 16.0], atol=1e-13)
    assert np.max(np.abs(g - np.diag(np.diag(g)))) < 1e-13


@pytest.mark.parametrize("params", PARAM_SETS)
def test_analytic_residuals_small(params):
    rng = np.random.default_rng(11)
    for pt in random_exterior_points(params, 10, rng):
        assert killing_yano_residual(params, pt) < 1e-10
        assert conformal_ky_residual(params, pt) < 1e-10
        assert killing_tensor_residual(params, pt) < 1e-10
        assert tetrad_reconstruction_residual(params, pt) < 1e-11


@pytest.mark.parametrize("params", PARAM_SETS)
def test_fd_residual_orders(params):
    rng = np.random.default_rng(12)
    for pt in random_exterior_points(params, 2, rng):
        o1 = math.log2(killing_yano_residual_fd(params, pt, 2e-3)
                       / killing_yano_residual_fd(params, pt, 1e-3))
        o2 = math.log2(killing_tensor_residual_fd(params, pt, 2e-3)
                       / killing_tensor_residual_fd(params, pt, 1e-3))
        assert o1 > 1.9 and o2 > 1.9


def test_fd_residual_rejects_a_stencil_across_the_axis():
    # theta = 0.3 with step 0.5 puts stencil points at theta = -0.2
    params = KerrParams(1.0, 0.5)
    with pytest.raises(DomainError):
        killing_yano_residual_fd(params, BLPoint(0.0, 6.0, 0.3, 0.0, params), step=0.5)


def test_reversing_the_spin_reverses_the_azimuth():
    # g(-a) = S g(a) S with S = diag(1, 1, 1, -1): the closed forms must be
    # exactly even or odd in a, entry by entry
    S = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])  # entries of S . S
    for a in (0.3, 0.9):
        points = random_exterior_points(KerrParams(1.0, a), 50, np.random.default_rng(5))
        reverse = KerrParams(1.0, -a)
        for p in points:
            g = kerr_metric(p.params, p).g.components
            g_rev = kerr_metric(reverse, BLPoint(*p.coords, reverse)).g.components
            assert np.array_equal(g_rev, S * g)


def test_carter_tensor_is_square_of_ky():
    params = KerrParams(1.0, 0.7)
    pt = BLPoint(0.0, 6.0, 0.9, 1.2, params)
    Y = _at(params, pt.r, pt.theta, "Y")[0]
    ginv = kerr_metric(params, pt).g_inv.components.real
    K = carter_tensor(params, pt).components.real
    # K_ab = Y_ac g^{cd} Y_db; Y antisymmetric makes this -(Y g^{-1} Y^T)_ab
    K_built = -Y @ ginv @ Y.T
    assert np.allclose(K, K_built, atol=1e-10 * max(1.0, np.max(np.abs(K))))


@pytest.mark.parametrize("params", PARAM_SETS)
def test_xi_is_time_translation(params):
    pt = BLPoint(0.0, 5.0, 1.3, 0.2, params)
    ginv = kerr_metric(params, pt).g_inv.components.real
    xi_up = ginv @ xi_oneform(params, pt).components
    assert np.max(np.abs(xi_up - np.array([1, 0, 0, 0]))) < 1e-10


def test_kappa_scalar_closed_form():
    params = KerrParams(1.0, 0.6)
    pt = BLPoint(0.0, 4.5, 0.8, 0.0, params)
    k1, U = kappa_scalars(params, pt)
    expected = -(pt.r - 1j * params.a * math.cos(pt.theta)) / 3.0
    assert abs(k1 - expected) < 1e-12
    # U = -d log kappa1: check the r component analytically
    assert abs(U.components[1] - (-1.0 / (pt.r - 1j * params.a * math.cos(pt.theta)))) < 1e-10


@pytest.mark.parametrize("params", PARAM_SETS)
def test_tetrad_inner_products(params):
    pt = BLPoint(0.0, 7.0, 1.0, 0.0, params)
    l, n, mv, mb = principal_tetrad(params, pt)
    g = kerr_metric(params, pt).g.components.real
    ip = lambda u, v: u.components @ g @ v.components
    assert abs(ip(l, l)) < 1e-11
    assert abs(ip(n, n)) < 1e-11
    assert abs(ip(l, n) + 1.0) < 1e-11  # ghat(l, n) = 1 with ghat = -g
    assert abs(ip(mv, mb) - 1.0) < 1e-11  # ghat(m, mbar) = -1


# exterior points (m = 1): a = 0, a generic spin, and theta next to either
# edge of the axis guard band
FORM_POINTS = [(0.0, 4.0, 1.1), (0.0, 7.5, 2.0e-6), (0.5, 3.0, 0.7),
               (0.9, 2.5, math.pi - 2.0e-6), (0.9, 11.0, 1.9)]


# a velocity for the forms that take one (accel)
FORM_VELOCITY = (1.3, -0.2, 0.05, 0.11)


def test_compiled_forms_match_plain_lambdify():
    import sympy as sp

    from kerrlab._derive import _exprs
    from kerrlab.kerr import COMPLEX_FORMS, _forms

    exprs = _exprs()
    forms = _forms()
    assert set(forms) == set(exprs) and len(forms) == 17
    for name, (args, expr) in exprs.items():
        plain = sp.lambdify(args, expr, modules="numpy")
        for a, r, th in FORM_POINTS:
            point = ((1.0, a, r, th) + FORM_VELOCITY)[:len(args)]
            ref = np.array(plain(*point), dtype=complex)
            got = np.array(forms[name](*point))
            assert got.shape == ref.shape, name
            if name in COMPLEX_FORMS:
                assert got.dtype == np.complex128, name
            else:
                assert got.dtype == np.float64, name
                assert np.max(np.abs(ref.imag), initial=0.0) == 0.0, name
            scale = max(np.max(np.abs(ref), initial=0.0), 1e-300)
            err = np.max(np.abs(got - ref), initial=0.0)
            if err > 1e-13 * scale:
                # next to the axis the unfactored expression cancels terms of
                # order 1/sin^2 theta (dK at a = 0 loses 3e-10 there); the
                # compiled form must then match the 40-digit value instead
                exact = _evalf(args, expr, point)
                err = np.max(np.abs(got - exact), initial=0.0)
            assert err <= 1e-13 * scale, (name, a, r, th, err / scale)


def test_identically_zero_entries_read_exactly_zero():
    # K_r theta, K_theta r and four entries of dK vanish identically; emitted
    # as kernels they computed rounding noise (K_r theta read -8.9e-16 here),
    # which reached the Carter constant through 2 K_r theta u^r u^theta
    from kerrlab.kerr import _forms

    K, dK = (_forms()[name](1.0, 0.9, 2.5, 1.9) for name in ("K", "dK"))
    assert K[1, 2] == K[2, 1] == 0.0
    assert np.all(dK.ravel()[[22, 25, 38, 41]] == 0.0)


def _numpy_point(name, m, a, r, th):
    """The named form at one point as the numpy kernel gives it, scattered
    into its shape."""
    from kerrlab._closed_forms import FORMS

    kernel, shape, idx, dtype = FORMS[name]
    out = np.zeros(math.prod(shape), dtype=dtype)
    out[list(idx)] = kernel(m, a, r, th)
    return out.reshape(shape)


def _one_point_mismatches(forms, points):
    """(name, m, a, r, th) wherever a real form of (m, a, r, th) differs at one
    point in any bit from the numpy kernel's."""
    from kerrlab.kerr import COMPLEX_FORMS

    return [(name, m, a, r, th) for name in sorted(set(forms) - COMPLEX_FORMS - {"accel"})
            for m, a, r, th in points
            if forms[name](m, a, r, th).tobytes() != _numpy_point(name, m, a, r, th).tobytes()]


def _exterior_sweep(n, seed):
    """(m, a, r, th) at n points outside the horizon and inside the axis
    guard band, for masses 0.5-2 and spins up to 0.999 m of either sign."""
    from kerrlab.kerr import THETA_GUARD

    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        m = rng.uniform(0.5, 2.0)
        params = KerrParams(m, m * rng.uniform(-0.999, 0.999))
        points.append((m, params.a, rng.uniform(params.r_plus * (1 + 1e-9), 100.0 * m),
                       rng.uniform(THETA_GUARD, math.pi - THETA_GUARD)))
    return points


def test_one_point_real_forms_keep_the_numpy_kernels_bits():
    # a real form's one-point path runs its kernel on Python floats with the
    # math module's cos, sin and sqrt; every entry must keep the numpy
    # kernel's bits, at Python floats and at the numpy scalars a geodesic
    # state yields
    from kerrlab.kerr import _forms

    points = [(1.0, a, r, th) for a, r, th in FORM_POINTS] + _exterior_sweep(1000, 30)
    assert _one_point_mismatches(_forms(), points) == []
    as_numpy = [tuple(map(np.float64, p)) for p in points[::10]]
    assert _one_point_mismatches(_forms(), as_numpy) == []


def test_the_bit_parity_check_sees_a_one_ulp_error(monkeypatch):
    # forms built on a cos one ulp off must fail the check above
    from kerrlab import kerr
    from kerrlab._closed_forms import FORMS

    planted = dict(kerr._MATH_GLOBALS, cos=lambda x: math.nextafter(math.cos(x), math.inf))
    monkeypatch.setattr(kerr, "_MATH_GLOBALS", planted)
    forms = {name: kerr._scatter(*entry) for name, entry in FORMS.items()}
    assert _one_point_mismatches(forms, [(1.0, a, r, th) for a, r, th in FORM_POINTS])


def _accel_states(n, seed):
    """(m, a, r, th, u0, u1, u2, u3) at n states: the points of
    `_exterior_sweep` with normally distributed velocities."""
    u = np.random.default_rng(seed).normal(size=(n, 4))
    return np.column_stack([np.array(_exterior_sweep(n, seed)), u])


def test_accel_is_minus_gamma_u_u():
    # accel's kernel is generated from gamma's expressions, not from gamma's
    # kernel.  Over 300 states, at one state and in a batch, it must equal
    # -Gamma^c_ab u^a u^b contracted from gamma's form within 8 ulps of the
    # largest sum of |Gamma^c_ab u^a u^b| over a and b.  (Componentwise the two
    # differ by up to 1e4 ulps of that sum in c = t at large r, where both lie
    # as far from the 40-digit value: gamma's own entries cancel there.)
    from kerrlab.kerr import _forms

    forms = _forms()
    states = _accel_states(300, 38)
    m, a, r, th, *u = states.T
    u = np.array(u).T
    G = forms["gamma"](m, a, r, th)
    want = -np.einsum("ncab,na,nb->nc", G, u, u)
    scale = np.max(np.einsum("ncab,na,nb->nc", np.abs(G), np.abs(u), np.abs(u)), axis=1)
    batch = np.array(forms["accel"](m, a, r, th, *u.T)).T
    one = np.array([forms["accel"](*map(float, state)) for state in states])
    for got in (batch, one):
        ulps = np.max(np.abs(got - want), axis=1) / (np.finfo(float).eps * scale)
        assert np.max(ulps) <= 8.0, (np.max(ulps), states[np.argmax(ulps)])


def _accel_mismatches(point, states):
    """The states (m, a, r, th, u0..u3), given as numpy scalars, at which
    point(*state) differs in any bit from the numpy kernel of accel."""
    from kerrlab._closed_forms import FORMS

    kernel = FORMS["accel"][0]
    return [state for state in map(tuple, states)
            if np.array(point(*state)).tobytes() != np.array(kernel(*state)).tobytes()]


def test_one_state_accel_keeps_the_numpy_kernels_bits():
    # the geodesic right-hand side evaluates accel on one state's numpy scalars
    # through the twin on Python floats; each entry keeps the numpy kernel's
    # bits.  (A batch of states runs the numpy kernel on arrays, whose powers
    # may round differently from pow() in the last bit.)
    from kerrlab.kerr import _forms

    assert _accel_mismatches(_forms()["accel"], _accel_states(1000, 30)) == []


def test_the_accel_bit_parity_check_sees_a_one_ulp_error(monkeypatch):
    # a twin built on a sin one ulp off must fail the check above
    from kerrlab import kerr
    from kerrlab._closed_forms import FORMS

    planted = dict(kerr._MATH_GLOBALS, sin=lambda x: math.nextafter(math.sin(x), math.inf))
    monkeypatch.setattr(kerr, "_MATH_GLOBALS", planted)
    assert _accel_mismatches(kerr._one_point(FORMS["accel"][0]), _accel_states(20, 30))


def _outcome(form, *args):
    """(bytes of the result or the exception's type, the warnings' texts)."""
    import warnings

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            value = form(*args).tobytes()
        except ArithmeticError as exc:
            value = type(exc)
    return value, sorted({str(w.message) for w in seen})


@pytest.mark.parametrize("r", [KerrParams(1.0, 0.5).r_plus, 1e200, math.inf, math.nan],
                         ids=["horizon", "overflow", "inf", "nan"])
def test_one_point_forms_where_python_floats_fail_keep_the_numpy_outcome(r):
    # at r = r+ (Delta = 0) and at r = 1e200 (r**2 overflows) the Python
    # float evaluation raises, and at a non-finite r its NaNs can differ from
    # numpy's in the sign bit; the form then returns the numpy kernel's
    # inf/NaN with its warnings, as it does for a geodesic state there
    from kerrlab.kerr import COMPLEX_FORMS, _forms

    for name, form in _forms().items():
        if name in COMPLEX_FORMS or name == "accel":  # accel: test_one_state_rhs_at_the_horizon
            continue
        for args in ((1.0, 0.5, np.float64(r), np.float64(1.1)), (1.0, 0.5, r, 1.1)):
            want = _outcome(lambda *p: _numpy_point(name, *p), *args)
            assert _outcome(form, *args) == want, (name, args)
        value, _ = _outcome(form, 1.0, 0.5, np.float64(r), np.float64(1.1))
        assert isinstance(value, bytes), name  # no exception at a numpy scalar


def _evalf(args, expr, values):
    import sympy as sp

    subs = {s: sp.Float(v, 40) for s, v in zip(args, values)}
    entries = sp.Array(expr)
    flat = sp.flatten(entries) if entries.shape else [entries[()]]
    return np.array([complex(sp.N(e.subs(subs), 40)) for e in flat]).reshape(entries.shape)


def test_compiled_forms_broadcast_over_points():
    from kerrlab.kerr import _forms

    r = np.array([[3.0, 4.5, 9.0], [2.5, 6.0, 11.0]])
    th = np.array([0.4, 1.6, math.pi - 2.0e-6])  # broadcast against r's rows
    for a in (0.0, 0.6):
        for name, form in _forms().items():
            if name == "accel":  # of states, not points: test_accel_is_minus_gamma_u_u
                continue
            batch = form(1.0, a, r, th)
            single = np.array([[form(1.0, a, r[i, j], th[j]) for j in range(3)]
                               for i in range(2)])
            assert batch.shape == single.shape and batch.dtype == single.dtype, name
            scale = max(np.max(np.abs(single), initial=0.0), 1e-300)
            assert np.max(np.abs(batch - single), initial=0.0) <= 1e-13 * scale, name


def test_closed_forms_module_is_current():
    # re-deriving with sympy reproduces the committed _closed_forms.py byte for byte
    from kerrlab import _derive

    assert _derive.main(["--check"]) == 0


def test_derive_check_rejects_a_stale_module(tmp_path, monkeypatch):
    from kerrlab import _derive

    stale = tmp_path / "_closed_forms.py"
    stale.write_text(_derive.TARGET.read_text().replace("x0", "y0", 1))
    monkeypatch.setattr(_derive, "TARGET", stale)
    assert _derive.main(["--check"]) == 1
    assert _derive.main([]) == 0 and _derive.main(["--check"]) == 0
    assert stale.read_text() == _derive.emit()


def test_a_killing_yano_residual_just_past_its_bound_fails_the_calibration(monkeypatch):
    # _ky_calibration refuses a residual above 1e-10 and accepts one at it;
    # __wrapped__ runs it past its cache
    from kerrlab import CalibrationError, kerr

    params = KerrParams(1.0, 0.5)
    monkeypatch.setattr(kerr, "killing_yano_residual", lambda params, p: 1e-10)
    assert kerr._ky_calibration.__wrapped__(params) is None
    monkeypatch.setattr(kerr, "killing_yano_residual", lambda params, p: np.nextafter(1e-10, 1.0))
    with pytest.raises(CalibrationError, match="Killing-Yano residual"):
        kerr._ky_calibration.__wrapped__(params)
