import math

import numpy as np
import pytest

from kerrlab import (ConnectionProfile, DomainError, GuardBandError,
                     charge_report, chern_integral, eta_abel_oracle,
                     eta_h_circle, index_rhs_components, mode_kernel_count,
                     ramp_profile, reversed_profile)
from kerrlab.index2d import _mode_solution_moduli


def test_example_ramp_03_to_13():
    r = charge_report(ramp_profile(0.3, 1.3), k_max=8)
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
        mode_kernel_count(ramp_profile(0.0, 1.0 + 1e-10), 4, "APS")


def test_kmax_too_small_rejected():
    with pytest.raises(DomainError):
        mode_kernel_count(ramp_profile(0.3, 3.3), 2, "APS")


def test_mode_check_above_the_sample_limit_rejected(monkeypatch):
    # refused before the (nodes x modes) rate array is built: one mode needs
    # 2001 base nodes
    monkeypatch.setattr("kerrlab.index2d.MAX_MODE_SAMPLES", 2000)
    with pytest.raises(DomainError):
        mode_kernel_count(ramp_profile(0.3, 1.3), 4, "APS")


def test_collar_required():
    with pytest.raises(DomainError):
        ConnectionProfile(a=lambda t: t, T=10.0, collar=True)
    free = ConnectionProfile(a=lambda t: t / 10.0, T=10.0, collar=False)
    with pytest.raises(DomainError):
        index_rhs_components(free)


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
    other = ConnectionProfile(a=wiggly, T=10.0, collar=True)
    ra, rb = charge_report(base), charge_report(other)
    assert ra.as_dict() == pytest.approx(rb.as_dict(), abs=1e-9)


def test_complementarity_under_time_reflection():
    # holds whenever both boundary operators are invertible
    for a0, a1 in ((0.3, 1.3), (0.25, -2.75), (0.5, 1.5), (0.3, -1.7)):
        p = ramp_profile(a0, a1)
        q = reversed_profile(p)
        assert mode_kernel_count(p, 8, "APS") == mode_kernel_count(q, 8, "aAPS")
        assert mode_kernel_count(p, 8, "aAPS") == mode_kernel_count(q, 8, "APS")


def test_mode_counts_match_closed_form():
    # APS kernel: modes with k + a(0) < 0 < k + a(T)
    p = ramp_profile(0.25, 3.25)
    assert mode_kernel_count(p, 8, "APS") == 3
    assert mode_kernel_count(p, 8, "aAPS") == 0


@pytest.mark.parametrize("profile", [ramp_profile(0.3, -2.6),
                                     ConnectionProfile(a=wiggly, T=10.0, collar=True)],
                         ids=["ramp", "wiggly"])
def test_batched_mode_moduli_stay_one(profile):
    # c' = -i (k + a) c is a pure phase, so |c(T)/c(0)| = 1 up to the RK4 error
    moduli = _mode_solution_moduli(profile, range(-6, 7))
    assert moduli.shape == (13,)
    assert np.max(np.abs(moduli - 1.0)) < 1e-5


def test_charge_report_samples_the_profile_once():
    # chern_integral and both mode checks read one set of 2001 samples of a,
    # taken on Python floats; the other calls are the endpoints and collars
    ramp = ramp_profile(0.3, 1.3)
    seen = []

    def a(t):
        seen.append(type(t))
        return ramp.a(t)

    profile = ConnectionProfile(a=a, T=ramp.T, collar=True)
    seen.clear()
    report = charge_report(profile, k_max=8)
    assert report.dim_ker_aps == 1 and report.index_lhs == 1
    assert 2001 <= len(seen) < 2001 + 20
    assert set(seen) == {float}
    assert report == charge_report(ramp, k_max=8)


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
