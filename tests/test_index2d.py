import math

import numpy as np
import pytest

from oracles import eta_abel_oracle, reversed_profile

from kerrlab import (ConnectionProfile, DomainError, GuardBandError,
                     charge_report, chern_integral, eta_h_circle,
                     mode_kernel_count, ramp_profile)
from kerrlab import index2d
from kerrlab.index2d import _mode_solution_moduli


def test_example_ramp_03_to_13():
    r = charge_report(ramp_profile(0.3, 1.3))
    assert r.dim_ker_aps == 1 and r.dim_ker_aaps == 0
    assert r.index_lhs == 1 and round(r.index_rhs) == 1
    assert abs(r.q_chiral + 2.0) < 1e-12
    assert abs(r.q_left - 1.0) < 1e-12 and abs(r.q_right + 1.0) < 1e-12


def test_example_integer_endpoints_0_to_1():
    r = charge_report(ramp_profile(0.0, 1.0))
    assert r.dim_ker_aps == 0 and r.dim_ker_aaps == 0
    assert r.index_lhs == 0 and round(r.index_rhs) == 0
    assert r.h1 == 1 and r.h2 == 1


def test_example_ramp_03_to_minus17():
    r = charge_report(ramp_profile(0.3, -1.7))
    assert r.dim_ker_aps == 0 and r.dim_ker_aaps == 2
    assert r.index_lhs == -2 and round(r.index_rhs) == -2


@pytest.mark.parametrize("flux", range(-3, 4))
@pytest.mark.parametrize("frac", [0.0, 0.3])
def test_calibration_family(flux, frac):
    r = charge_report(ramp_profile(frac, frac + flux))
    assert r.index_lhs == round(r.index_rhs)
    assert abs(r.index_rhs - round(r.index_rhs)) <= 1e-9
    assert abs(r.q_left + r.q_right) < 1e-12
    if frac != 0.0:  # eta/h terms cancel for equal non-integer fractional parts
        assert abs(r.q_chiral + 2.0 * flux) < 1e-9


def test_eta_closed_form_matches_abel_oracle():
    for a in (0.3, 1.3, -1.7, 0.25, 0.5, 2.9):
        eta, h = eta_h_circle(a)
        assert h == 0
        assert abs(eta - eta_abel_oracle(a)) < 1e-8
    eta0, h0 = eta_h_circle(2.0)
    assert eta0 == 0.0 and h0 == 1


def test_guard_band_raises():
    with pytest.raises(GuardBandError):
        eta_h_circle(1.0 + 1e-10)
    with pytest.raises(GuardBandError):
        mode_kernel_count(ramp_profile(0.0, 1.0 + 1e-10), "APS")


def test_mode_check_above_the_sample_limit_rejected(monkeypatch):
    # refused before the (nodes x modes) rate array is built: one mode needs
    # 2001 base nodes
    monkeypatch.setattr("kerrlab.index2d.MAX_MODE_SAMPLES", 2000)
    with pytest.raises(DomainError):
        mode_kernel_count(ramp_profile(0.3, 1.3), "APS")


def test_collar_required():
    # a profile that is not constant on its collars is refused when it is built
    # NaN samples are refused too: no comparison with a bound holds for them
    for a in (lambda t: t, lambda t: t / 10.0, lambda t: math.nan, lambda t: 0.0 * t + math.nan):
        with pytest.raises(DomainError, match="constant on its collars"):
            ConnectionProfile(a=a, T=10.0)


def test_chern_integral_matches_endpoints():
    p = ramp_profile(0.25, 2.25)
    assert abs(chern_integral(p) - 2.0) < 1e-8


def wiggly(t):
    s = (t - 0.5) / 9.0
    s = min(max(s, 0.0), 1.0)
    ease = s**3 * (10 - 15 * s + 6 * s**2)
    return 0.3 + 2.0 * ease + 0.4 * math.sin(math.pi * ease) * ease * (1 - ease)


def test_homotopy_invariance():
    # two different interior paths with identical endpoints give the same
    # index data
    base = ramp_profile(0.3, 2.3)
    other = ConnectionProfile(a=wiggly, T=10.0)
    ra, rb = charge_report(base), charge_report(other)
    assert ra.as_dict() == pytest.approx(rb.as_dict(), abs=1e-9)


def test_complementarity_under_time_reflection():
    # holds whenever both boundary operators are invertible
    for a0, a1 in ((0.3, 1.3), (0.25, -2.75), (0.5, 1.5), (0.3, -1.7)):
        p = ramp_profile(a0, a1)
        q = reversed_profile(p)
        assert mode_kernel_count(p, "APS") == mode_kernel_count(q, "aAPS")
        assert mode_kernel_count(p, "aAPS") == mode_kernel_count(q, "APS")


@pytest.mark.parametrize("a0, a1", [(50.3, 51.3), (0.3, -1.7), (-7.5, 3.25), (2.0, 2.0)])
def test_mode_count_examines_only_the_modes_between_the_endpoints(monkeypatch, a0, a1):
    # only k between -a(0) and -a(T) can change the sign of k + a, so each
    # condition snaps two eigenvalues of at most ceil|a(T) - a(0)| + 4 modes,
    # however far the endpoints lie from 0; eta_h_circle snaps one per end
    calls = []
    snap = index2d._snap
    monkeypatch.setattr(index2d, "_snap", lambda value: calls.append(value) or snap(value))
    charge_report(ramp_profile(a0, a1))
    assert len(calls) <= 2 * 2 * (math.ceil(abs(a1 - a0)) + 4) + 2


@pytest.mark.parametrize("a0, a1, refused", [(99997.3, 99996.3, False), (-99997.3, -99996.3, False),
                                             (99998.3, 99997.3, True), (0.0, -99998.3, True)])
def test_endpoints_beyond_the_mode_bound_are_refused(a0, a1, refused):
    # the bound of the endpoints: ceil(max(|a(0)|, |a(T)|)) + 2 <= MAX_K
    if refused:
        with pytest.raises(DomainError, match="beyond the mode bound"):
            charge_report(ramp_profile(a0, a1))
    else:
        assert charge_report(ramp_profile(a0, a1)).index_lhs == math.floor(a1) - math.floor(a0)


def test_mode_counts_match_closed_form():
    # APS kernel: modes with k + a(0) < 0 < k + a(T)
    p = ramp_profile(0.25, 3.25)
    assert mode_kernel_count(p, "APS") == 3
    assert mode_kernel_count(p, "aAPS") == 0


@pytest.mark.parametrize("profile", [ramp_profile(0.3, -2.6),
                                     ConnectionProfile(a=wiggly, T=10.0)],
                         ids=["ramp", "wiggly"])
def test_batched_mode_moduli_stay_one(profile):
    # c' = -i (k + a) c is a pure phase, so |c(T)/c(0)| = 1 up to the RK4 error
    moduli = _mode_solution_moduli(profile, range(-6, 7))
    assert moduli.shape == (13,)
    assert np.max(np.abs(moduli - 1.0)) < 1e-5


def test_charge_report_samples_the_profile_once():
    # chern_integral, both mode checks and the endpoints read one set of
    # 2001 samples of a: one call on the array of times when a takes arrays
    # (a ramp), else one call per time on Python floats, and no other call
    ramp = ramp_profile(0.3, 1.3)
    for takes_arrays in (True, False):
        arrays, floats = [], []

        def a(t):
            if isinstance(t, np.ndarray):
                arrays.append(t.size)
                if not takes_arrays:
                    raise TypeError("a float-only profile")
            else:
                floats.append(type(t))
            return ramp.a(t)

        profile = ConnectionProfile(a=a, T=ramp.T)
        assert arrays == [16, 16]  # the collars, each tried in one array call
        assert len(floats) == (0 if takes_arrays else 32)
        arrays.clear()
        floats.clear()
        report = charge_report(profile)
        assert report.dim_ker_aps == 1 and report.index_lhs == 1
        assert arrays == [2001]
        assert floats == ([] if takes_arrays else [float] * 2001)
        assert report == charge_report(ramp)


@pytest.mark.parametrize("a0, a1", [(0.3, 1.3), (0.3, -1.7), (0.25, 2.75), (0.0, 1.0)])
def test_index_report_is_invariant_under_integer_shifts_of_the_connection(a0, a1):
    # a -> a + k for an integer k relabels the boundary spectra {k' + a}: the
    # kernel dimensions and the index are equal, and the relative and chiral
    # charges agree to 1e-12
    ref = charge_report(ramp_profile(a0, a1))
    for k in (-2, 1, 5):
        r = charge_report(ramp_profile(a0 + k, a1 + k))
        assert (r.dim_ker_aps, r.dim_ker_aaps, r.index_lhs) == \
            (ref.dim_ker_aps, ref.dim_ker_aaps, ref.index_lhs), k
        for name in ("q_left", "q_right", "q_chiral"):
            assert abs(getattr(r, name) - getattr(ref, name)) <= 1e-12, (k, name)


def test_a_ramp_sampled_in_one_array_call_has_the_bits_of_scalar_calls():
    # the ramp is written with products, not powers (numpy's array ** is not
    # C pow), so that sampling it on an array of times gives, bit for bit,
    # the values of one call per time on Python floats
    rng = np.random.default_rng(47)
    for _ in range(20):
        a0, a1 = rng.uniform(-3.0, 3.0, size=2)
        ramp = ramp_profile(a0, a1, T=rng.uniform(0.5, 20.0))
        ts = np.linspace(0.0, ramp.T, 2001)
        by_array = index2d._sample_a(ramp, 2001)
        assert by_array.dtype == np.float64
        assert np.array_equal(by_array, np.array([float(ramp.a(t)) for t in ts.tolist()]))
        assert np.array_equal(np.asarray(ramp.a(ts)), by_array)
