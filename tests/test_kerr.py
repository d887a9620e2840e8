import math

import numpy as np
import pytest

from kerrlab import (BLPoint, DomainError, KerrParams, conformal_ky_residual, kerr_metric,
                     killing_tensor_residual, killing_tensor_residual_fd,
                     killing_yano_residual, killing_yano_residual_fd,
                     random_exterior_points, tetrad_reconstruction_residual, xi_oneform)
from kerrlab.kerr import _at, _principal_tetrad

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
    K = _at(params, pt.r, pt.theta, "K")[0]
    # K_ab = Y_ac g^{cd} Y_db; Y antisymmetric makes this -(Y g^{-1} Y^T)_ab
    K_built = -Y @ ginv @ Y.T
    assert np.allclose(K, K_built, atol=1e-10 * max(1.0, np.max(np.abs(K))))


@pytest.mark.parametrize("params", PARAM_SETS)
def test_xi_is_time_translation(params):
    pt = BLPoint(0.0, 5.0, 1.3, 0.2, params)
    ginv = kerr_metric(params, pt).g_inv.components.real
    xi_up = ginv @ xi_oneform(params, pt).components
    assert np.max(np.abs(xi_up - np.array([1, 0, 0, 0]))) < 1e-10


@pytest.mark.parametrize("params", PARAM_SETS)
def test_tetrad_inner_products(params):
    pt = BLPoint(0.0, 7.0, 1.0, 0.0, params)
    l, n, mv, mb = _principal_tetrad(params, pt.r, pt.theta)
    g = kerr_metric(params, pt).g.components.real
    ip = lambda u, v: u @ g @ v
    assert abs(ip(l, l)) < 1e-11
    assert abs(ip(n, n)) < 1e-11
    assert abs(ip(l, n) + 1.0) < 1e-11  # ghat(l, n) = 1 with ghat = -g
    assert abs(ip(mv, mb) - 1.0) < 1e-11  # ghat(m, mbar) = -1


# exterior points (m = 1): a = 0, a generic spin, and theta next to either
# edge of the axis guard band
FORM_POINTS = [(0.0, 4.0, 1.1), (0.0, 7.5, 2.0e-6), (0.5, 3.0, 0.7),
               (0.9, 2.5, math.pi - 2.0e-6), (0.9, 11.0, 1.9)]


# momenta (p_v, p_r, p_theta, p_psi) for the forms that take them (flow, integrals)
FORM_MOMENTA = (-1.3, -0.2, 0.05, 0.11)
MOMENTUM_FORMS = ("flow", "integrals")


def test_compiled_forms_match_plain_lambdify():
    import sympy as sp

    from kerrlab._closed_forms import FORMS
    from kerrlab._derive import _exprs
    from kerrlab.kerr import _forms

    exprs = _exprs()
    forms = _forms()
    assert set(forms) == set(exprs) and len(forms) == 16
    for name, (args, expr) in exprs.items():
        plain = sp.lambdify(args, expr, modules="numpy")
        for a, r, th in FORM_POINTS:
            point = ((1.0, a, r, th) + FORM_MOMENTA)[:len(args)]
            ref = np.array(plain(*point), dtype=complex)
            got = np.array(forms[name](*point))
            assert got.shape == ref.shape, name
            if FORMS[name][3] is complex:
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


def test_every_generated_kernel_has_a_reader():
    # each form of _closed_forms is read by its name somewhere in the library
    # outside its derivation and the generated module: as a string constant
    # ("g", "F_uniform", ...) or as "d" + name (`kerr._analytic_nabla` reads
    # dY and dK so).  A form that nothing reads is dead code to derive,
    # compile and test
    import ast
    import pathlib

    import kerrlab
    from kerrlab._closed_forms import FORMS

    constants, prefixes = set(), set()
    for path in pathlib.Path(kerrlab.__file__).parent.glob("*.py"):
        if path.stem in ("_derive", "_closed_forms"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                constants.add(node.value)
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                  and isinstance(node.right, ast.Name) and isinstance(node.left, ast.Constant)
                  and isinstance(node.left.value, str)):
                prefixes.add(node.left.value)
    read = constants | {prefix + name for prefix in prefixes for name in constants}
    assert sorted(set(FORMS) - read) == []


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
    from kerrlab._closed_forms import FORMS

    return [(name, m, a, r, th) for name in sorted(forms)
            if FORMS[name][3] is float and name not in MOMENTUM_FORMS
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
    # a real form at one point must keep the numpy kernel's bits in every
    # entry, at Python floats and at the numpy scalars a geodesic state
    # yields: a guard for any one-point path other than the array one
    from kerrlab.kerr import _forms

    points = [(1.0, a, r, th) for a, r, th in FORM_POINTS] + _exterior_sweep(1000, 30)
    assert _one_point_mismatches(_forms(), points) == []
    as_numpy = [tuple(map(np.float64, p)) for p in points[::10]]
    assert _one_point_mismatches(_forms(), as_numpy) == []


def _momentum_states(n, seed):
    """(m, a, r, th, pv, pr, pth, ppsi) at n states: the points of
    `_exterior_sweep` with normally distributed momenta."""
    p = np.random.default_rng(seed).normal(size=(n, 4))
    return np.column_stack([np.array(_exterior_sweep(n, seed)), p])


def test_flow_is_hamiltons_equations_in_boyer_lindquist():
    # flow is derived from the ingoing chart's H, not from ginv's or gamma's
    # kernels.  Over 300 states, at one state and in a batch, it must equal
    # u^a = g^{ab} p_b and dp_a/dtau = Gamma^d_ab u^b p_d in Boyer-Lindquist,
    # with p_r = p'_r + l^t p_v + l^phi p_psi and dp'_r/dtau = dp_r/dtau -
    # u^r (d_r l^t p_v + d_r l^phi p_psi) through the chart (l^t = (r^2 + a^2)/Delta,
    # l^phi = a/Delta), within 1e-12 of the sum of each side's absolute terms
    # carried through the chart map: the largest reads about 62 ulps of it,
    # where the Christoffels' own entries cancel
    from kerrlab.kerr import _forms, _twin

    forms = _forms()
    states = _momentum_states(300, 38)
    m, a, r, th, pv, pr, pth, pps = states.T
    ginv, G, l = (forms[name](m, a, r, th) for name in ("ginv", "gamma", "l"))
    Delta = r**2 - 2 * m * r + a**2
    dl = [(2 * r * Delta - (r**2 + a**2) * (2 * r - 2 * m)) / Delta**2, -a * (2 * r - 2 * m) / Delta**2]
    p = np.stack([pv, pr + l[:, 0] * pv + l[:, 3] * pps, pth, pps], axis=1)
    P = np.stack([abs(pv), abs(pr) + abs(l[:, 0] * pv) + abs(l[:, 3] * pps), abs(pth), abs(pps)], axis=1)
    u, U = np.einsum("nab,nb->na", ginv, p), np.einsum("nab,nb->na", abs(ginv), P)
    f, F = np.einsum("ndab,nb,nd->na", G, u, p), np.einsum("ndab,nb,nd->na", abs(G), U, P)
    want = np.stack([*u.T, f[:, 1] - u[:, 1] * (dl[0] * pv + dl[1] * pps), f[:, 2]], axis=1)
    scale = np.stack([U[:, 0] + abs(l[:, 0]) * U[:, 1], U[:, 1], U[:, 2], U[:, 3] + abs(l[:, 3]) * U[:, 1],
                      F[:, 1] + U[:, 1] * (abs(dl[0] * pv) + abs(dl[1] * pps)), F[:, 2]], axis=1)
    batch = np.array(forms["flow"](*states.T)).T
    one = np.array([_twin(forms["flow"])(*state) for state in states.tolist()])
    for got in (batch, one):
        err = np.max(np.abs(got - want) / scale, axis=1)
        assert np.max(err) <= 1e-12, (np.max(err), states[np.argmax(err)])


def _flow_mismatches(point, states):
    """The states (m, a, r, th, pv, pr, pth, ppsi), given as Python floats,
    at which point(*state) differs in any bit from the numpy kernel of flow
    at the same state as numpy scalars."""
    from kerrlab._closed_forms import FORMS

    kernel = FORMS["flow"][0]
    return [state for state in map(tuple, states.tolist())
            if np.array(point(*state)).tobytes() != np.array(kernel(*map(np.float64, state))).tobytes()]


def test_one_state_flow_keeps_the_numpy_kernels_bits():
    # the geodesic right-hand side evaluates flow at one state of Python
    # floats on its twin; each entry keeps the numpy kernel's bits at the
    # same state.  (A batch of states runs the numpy kernel on arrays, whose
    # powers would round differently from pow() in the last bit but for
    # _derive.PRODUCT_POWERS: see test_a_batch_and_one_state_of_flow_agree_bit_for_bit.)
    from kerrlab.kerr import _forms, _twin

    assert _flow_mismatches(_twin(_forms()["flow"]), _momentum_states(1000, 30)) == []


def test_the_flow_bit_parity_check_sees_a_one_ulp_error(monkeypatch):
    # a twin built on a sin one ulp off must fail the check above
    from kerrlab import kerr
    from kerrlab._closed_forms import FORMS

    planted = dict(kerr._MATH_GLOBALS, sin=lambda x: math.nextafter(math.sin(x), math.inf))
    monkeypatch.setattr(kerr, "_MATH_GLOBALS", planted)
    assert _flow_mismatches(kerr._twin(FORMS["flow"][0]), _momentum_states(20, 30))


def test_a_batch_and_one_state_of_flow_agree_bit_for_bit():
    # the integrator steps one state on the twin and samples a batch on the
    # numpy kernel.  Printed with pow() for integer powers, which numpy runs
    # on arrays as x*x and 1/x, the two differed on 148 of these 4,000
    # states, by up to 64 ulps of an entry (-dH/dr, whose terms cancel) and
    # 1.33 ulps of the state's largest entry; with the powers written as
    # products (_derive.PRODUCT_POWERS) they agree to the last bit
    from kerrlab.kerr import _forms, _twin

    states = _momentum_states(4000, 30)
    batch = np.array(_forms()["flow"](*states.T)).T
    one = np.array([_twin(_forms()["flow"])(*state) for state in states.tolist()])
    worst = np.max(np.abs(batch - one), axis=1) / (np.finfo(float).eps * np.max(np.abs(one), axis=1))
    assert np.max(worst) == 0.0, (np.max(worst), states[np.argmax(worst)])
    assert batch.tobytes() == one.tobytes()


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
    from kerrlab._closed_forms import FORMS
    from kerrlab.kerr import _forms

    for name, form in _forms().items():
        if FORMS[name][3] is complex or name in MOMENTUM_FORMS:  # flow: test_one_state_rhs_at_the_horizon
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
            if name in MOMENTUM_FORMS:  # of states, not points: test_flow_is_hamiltons_equations_in_...
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


def _flip_the_sign_of_Y_rt(forms):
    forms["Y"][1, 0] = -forms["Y"][1, 0]


def _drop_a_term_of_xi_t(forms):
    forms["xi"][0] = forms["xi"][0].func(*forms["xi"][0].args[1:])


def _scale_an_F_uniform_entry(forms):
    forms["F_uniform"][1, 0] *= 1 + 1e-6


def _scale_a_dK_entry(forms):
    # d_r K_tt; the outer list is the copy's own, its rows are shared
    forms["dK"][1] = [list(row) for row in forms["dK"][1]]
    forms["dK"][1][0][0] *= 1 + 1e-6


def _scale_the_ingoing_g_vr(forms):
    # a factor 1 + 1e-6 on g'^{vr} and g'^{rv}: the norm 2H gains 2e-6 g'^{vr} p_v p_r
    import sympy as sp

    k, norm = forms["integrals"]
    pv, pr = sp.symbols("pv pr", real=True)
    forms["integrals"][1] = norm + 1e-6 * sp.diff(norm, pv, pr) * pv * pr


def _scale_carters_k(forms):
    forms["integrals"][0] *= 1 + 1e-6


# The identities that a defect breaks beside the one it is named for: a Y
# that is not Killing-Yano is not conformal Killing-Yano either.
ALSO_BROKEN = {"Killing-Yano": ("conformal Killing-Yano",)}


@pytest.mark.parametrize("plant, identity", [(_flip_the_sign_of_Y_rt, "Killing-Yano"),
                                             (_drop_a_term_of_xi_t, "xi"),
                                             (_scale_an_F_uniform_entry, "Maxwell F_uniform"),
                                             (_scale_a_dK_entry, "Killing tensor"),
                                             (_scale_the_ingoing_g_vr, "ingoing chart"),
                                             (_scale_carters_k, "Carter k")])
def test_derive_check_names_the_identity_and_probe_of_a_planted_defect(monkeypatch, capsys,
                                                                       plant, identity):
    # a copy of the forms with one defect fails --check at every probe, on the
    # identity that the defect breaks (and on those of ALSO_BROKEN); the module
    # is current (emit is cached from the true forms), so these are the only
    # failures
    from kerrlab import _derive

    _derive.emit()
    forms = {name: (args, expr.copy() if hasattr(expr, "copy") else expr)
             for name, (args, expr) in _derive._exprs().items()}
    plant({name: expr for name, (_args, expr) in forms.items()})
    monkeypatch.setattr(_derive, "_exprs", lambda: forms)
    monkeypatch.setattr(_derive, "identities", _derive.identities.__wrapped__)  # past its cache
    assert _derive.main(["--check"]) == 1
    failures = capsys.readouterr().err.splitlines()
    assert [f.split(": residual")[0] for f in failures] == [
        f"identity {name} fails at (m, a, r, th) = ({', '.join(probe)})"
        for name in (identity, *ALSO_BROKEN.get(identity, ())) for probe in _derive.IDENTITY_PROBES]


def test_an_identity_residual_at_its_bound_passes_and_one_just_past_it_fails(monkeypatch, capsys):
    # every entry of every identity reads the given |value| / scale at every probe
    import mpmath

    from kerrlab import _derive

    bound = _derive.IDENTITY_BOUND
    monkeypatch.setattr(_derive, "_evaluate", lambda entry, memo: (mpmath.mpf(bound), mpmath.mpf(1)))
    assert _derive.main(["--check"]) == 0 and capsys.readouterr().err == ""
    past = np.nextafter(bound, 1.0)
    monkeypatch.setattr(_derive, "_evaluate", lambda entry, memo: (mpmath.mpf(past), mpmath.mpf(1)))
    assert _derive.main(["--check"]) == 1
    failures = capsys.readouterr().err.splitlines()
    assert len(failures) == len(_derive.identities()) * len(_derive.IDENTITY_PROBES)
