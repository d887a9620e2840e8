import math

import numpy as np
import pytest

from kerrlab import KerrParams, WaveGrid
from kerrlab._stencils import STENCILS, _diff, combine, mirror, on_points
from kerrlab.hyperbolic1d import Grid1p1, cauchy_solve, goursat_solve, sample
from kerrlab.index2d import ConnectionProfile, charge_report
from kerrlab.waves import (_centered_dt, _ghost_pad_theta, d2_rstar, d_rstar, d_theta,
                           lambda_theta_conservative)

# Each entry along axis 0 at the points where it fits, written as the
# formula it replaced: the centred stencils of hyperbolic1d, the face
# difference of waves' flux form, and the first rows of d_rstar, d2_rstar
# and the vt of dirac_solve_by_squaring.  A product with the reciprocal
# step, as the waves stencils formed it (numpy's complex division by a real
# forms the same product).
FORWARD = {
    "d1": lambda u, h: (u[2:] - u[:-2]) * (1.0 / (2.0 * h)),
    "d2": lambda u, h: (u[2:] - 2.0 * u[1:-1] + u[:-2]) * (1.0 / h**2),
    "d1_4": lambda u, h: (-u[4:] + 8.0 * u[3:-1] - 8.0 * u[1:-3] + u[:-4]) * (1.0 / (12.0 * h)),
    "d2_4": lambda u, h: (-u[4:] + 16.0 * u[3:-1] - 30.0 * u[2:-2] + 16.0 * u[1:-3]
                          - u[:-4]) * (1.0 / (12.0 * h**2)),
    "d1_face": lambda u, h: np.diff(u, axis=0) * (1.0 / h),
    "d1_end": lambda u, h: (-3.0 * u[:-2] + 4.0 * u[1:-1] - u[2:]) * (1.0 / (2 * h)),
    "d2_end": lambda u, h: (2.0 * u[:-3] - 5.0 * u[1:-2] + 4.0 * u[2:-1] - u[3:]) * (1.0 / h**2),
}
# the mirrored end rules, as the last rows of d_rstar, d2_rstar and vt
BACKWARD = {
    "d1_end": lambda u, h: (3.0 * u[2:] - 4.0 * u[1:-1] + u[:-2]) * (1.0 / (2 * h)),
    "d2_end": lambda u, h: (2.0 * u[3:] - 5.0 * u[2:-1] + 4.0 * u[1:-2] - u[:-3]) * (1.0 / h**2),
}
ACCURACY = {"d1": 2, "d2": 2, "d1_4": 4, "d2_4": 4, "d1_face": 1, "d1_end": 2, "d2_end": 2}


def _data(shape, complex_data, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=shape)
    return u + 1j * rng.normal(size=shape) if complex_data else u


@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name", sorted(STENCILS))
def test_each_entry_matches_its_formula_bit_for_bit(name, complex_data):
    u, h = _data((17, 3, 5), complex_data), 0.037
    assert np.array_equal(_diff(u, name, h), FORWARD[name](u, h))
    # along any axis: the same numbers, moved
    moved = np.moveaxis(u, 0, 1)
    assert np.array_equal(_diff(moved, name, h, axis=1), np.moveaxis(FORWARD[name](u, h), 0, 1))
    assert np.array_equal(_diff(u[:, 0, 0], name, h), FORWARD[name](u[:, 0, 0], h))


@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name, end", [(name, None) for name in sorted(STENCILS)]
                         + [("d1", "d1_end"), ("d2", "d2_end")])
def test_a_difference_formed_in_out_is_the_new_one_bit_for_bit(name, end, complex_data):
    # with `out`, a scaled second term is formed in out itself: the same
    # operations in the same order, and no temporary of the output's size
    u, h = _data((17, 3, 5), complex_data), 0.037
    ref = _diff(u, name, h, end=end)
    out = np.full_like(ref, np.nan)
    assert _diff(u, name, h, end=end, out=out) is out
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name, end", [("d1", "d1_end"), ("d2", "d2_end")])
def test_end_rows_are_the_one_sided_rules(name, end, complex_data):
    u, h = _data((11, 4), complex_data), 0.25
    out = _diff(u, name, h, end=end)
    assert out.shape == u.shape
    assert np.array_equal(out[1:-1], FORWARD[name](u, h))
    assert np.array_equal(out[0], FORWARD[end](u, h)[0])
    assert np.array_equal(out[-1], BACKWARD[end](u, h)[-1])


@pytest.mark.parametrize("name", sorted(STENCILS))
def test_moments_fix_the_derivative_and_the_order(name):
    # sum_k w_k k^j = c p! delta_jp for every j below p + q, q the order of
    # accuracy, and not for j = p + q: the entry is exactly that accurate;
    # the mirrored entry has the same moments
    q = ACCURACY[name]
    for offsets, weights, c, p in (STENCILS[name], mirror(STENCILS[name])):
        moments = [sum(w * k**j for k, w in zip(offsets, weights)) for j in range(p + q + 1)]
        assert moments[:-1] == [c * math.factorial(p) if j == p else 0.0 for j in range(p + q)]
        assert moments[-1] != 0.0


# The waves operators as they were written before the table, one formula each.
def _d_rstar(grid, psi):
    out = np.empty_like(psi)
    inv = 1.0 / (2 * grid.h_r)
    out[..., 1:-1, :] = (psi[..., 2:, :] - psi[..., :-2, :]) * inv
    out[..., 0, :] = (-3.0 * psi[..., 0, :] + 4.0 * psi[..., 1, :] - psi[..., 2, :]) * inv
    out[..., -1, :] = (3.0 * psi[..., -1, :] - 4.0 * psi[..., -2, :] + psi[..., -3, :]) * inv
    return out


def _d2_rstar(grid, psi):
    out = np.empty_like(psi)
    inv = 1.0 / grid.h_r**2
    out[..., 1:-1, :] = (psi[..., 2:, :] - 2.0 * psi[..., 1:-1, :] + psi[..., :-2, :]) * inv
    out[..., 0, :] = (2.0 * psi[..., 0, :] - 5.0 * psi[..., 1, :] + 4.0 * psi[..., 2, :]
                      - psi[..., 3, :]) * inv
    out[..., -1, :] = (2.0 * psi[..., -1, :] - 5.0 * psi[..., -2, :] + 4.0 * psi[..., -3, :]
                       - psi[..., -4, :]) * inv
    return out


def _d_theta(grid, psi):
    p = _ghost_pad_theta(psi, grid.parity)
    return (p[..., 2:] - p[..., :-2]) * (1.0 / (2.0 * grid.h_theta))


def _lambda_theta_conservative(grid, psi):
    h = grid.h_theta
    flux = np.diff(_ghost_pad_theta(psi, grid.parity), axis=-1) * (1.0 / h) * grid.sin_face
    return np.diff(flux, axis=-1) * (1.0 / (h * grid.sin_theta))


@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("m_phi", [0, 1])
def test_waves_operators_match_their_formulas_bit_for_bit(m_phi, complex_data):
    grid = WaveGrid(KerrParams(1.0, 0.7), m_phi, 20, 8, -10.0, 20.0)
    stack, dt = _data((5, 20, 8), complex_data, seed=m_phi), 0.07
    for ours, theirs in ((d_rstar, _d_rstar), (d2_rstar, _d2_rstar), (d_theta, _d_theta),
                         (lambda_theta_conservative, _lambda_theta_conservative)):
        assert np.array_equal(ours(grid, stack), theirs(grid, stack))
        assert np.array_equal(ours(grid, stack[2]), theirs(grid, stack[2]))
    assert np.array_equal(_centered_dt(stack, dt), (stack[2:] - stack[:-2]) * (1.0 / (2.0 * dt)))


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("name, end", [("d1", "d1_end"), ("d2", "d2_end")])
def test_end_rows_written_in_place_match_the_concatenated_parts(name, end, complex_data):
    # _diff writes the interior and both end rows into one array; each part
    # is the combine call it was before, so the result is the concatenation
    rng = np.random.default_rng(11)
    for shape, axis in (((40, 7), 0), ((5, 40, 3), 1), ((6, 33), -1)):
        u = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_data else 0.0)
        n = u.shape[axis]

        def at(start, stop):
            return np.take(u, range(start, stop), axis=axis)

        parts = [combine([at(i + k, i + k + 1) for k in rule[0]], rule, 0.3)
                 for rule, i in ((STENCILS[end], 0), (mirror(STENCILS[end]), n - 1))]
        middle = combine([at(1 + k, n - 1 + k) for k in STENCILS[name][0]], STENCILS[name], 0.3)
        ref = np.concatenate((parts[0], middle, parts[1]), axis=axis)
        got = _diff(u, name, 0.3, axis=axis, end=end)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


# on_points: the one rule by which the program samples a scalar callable.
# Each entry point below takes a pair of twins: a function written with
# numpy, which takes arrays, and the same function written with math and
# Python's min and max, which raise TypeError or ValueError on an array.
# +, *, / and sqrt round alike on arrays and on floats, so the twins must
# give the same bits, sampled in one call or in one call per point.
TWINS = {
    "numpy": {"sqrt": np.sqrt, "clip": lambda s: np.clip(s, 0.0, 1.0)},
    "math": {"sqrt": math.sqrt, "clip": lambda s: min(max(s, 0.0), 1.0)},
}


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def _entry_points(lib):
    sqrt, clip = lib["sqrt"], lib["clip"]
    grid = Grid1p1(T=1.0, n_x=32, n_t=8)
    source = lambda t, x: sqrt(1.0 + t * t) * x - 0.25 * t
    potential = lambda x: 0.5 * sqrt(1.0 + x * x)
    twist = lambda t: 0.3 + 0.1 * sqrt(1.0 + t * t)

    def ramp(t):
        s = clip((t - 0.5) / 9.0)
        return 0.3 + s * s * (3.0 - 2.0 * s)

    profile = ConnectionProfile(a=ramp, T=10.0)
    u0 = np.sin(grid.x)
    return {
        "sample": sample(grid, source),
        "goursat_solve": goursat_solve(lambda u: sqrt(1.0 + u * u), lambda v: sqrt(1.0 + 2.0 * v * v),
                                       0.9371, 300, f=source).phi,
        "cauchy_solve potential": cauchy_solve(grid, u0=u0, potential=potential),
        "cauchy_solve twist": cauchy_solve(grid, u0=u0, potential=potential, twist=twist),
        "ConnectionProfile samples": profile._samples,
        "ConnectionProfile endpoints": profile.endpoints,
        "charge_report": list(charge_report(profile).as_dict().values()),
    }


def test_a_numpy_callable_and_its_math_twin_give_the_same_bits():
    arrays, floats = _entry_points(TWINS["numpy"]), _entry_points(TWINS["math"])
    for name in arrays:
        assert _bits(arrays[name]) == _bits(floats[name]), name
    assert arrays["ConnectionProfile endpoints"] == (0.3, 1.3)
    assert arrays["charge_report"][2] == 1  # index_lhs


def test_on_points_calls_once_on_arrays_or_once_per_point_on_floats():
    t, x = np.arange(3.0)[:, None], np.arange(4.0)
    for f, calls in ((lambda t, x: t * x, 1),  # one value per point: kept
                     (lambda t, x: math.sqrt(t) * x, 1 + 12),  # TypeError on arrays
                     (lambda t, x: 2.0 * t, 1),  # t is passed at full shape: kept
                     (lambda t, x: 0.5, 1 + 12)):  # a scalar is sampled per point, not broadcast
        seen = []
        vals = on_points(lambda *p: seen.append(type(p[0])) or f(*p), t, x)
        assert vals.shape == (3, 4)
        assert len(seen) == calls and seen[0] is np.ndarray and set(seen[1:]) <= {float}
        assert np.array_equal(vals, [[f(a, b) for b in x.tolist()] for a in t.ravel().tolist()])
