"""APS index theorem for the hyperbolic Dirac operator on the 2D cylinder.

The manifold is the flat Lorentzian cylinder [0, T] x S^1 twisted by a U(1)
connection with holonomy parameter a(t): the spatial boundary operator at
time t has spectrum {k + a(t) : k integer}.  Left-handed kernel elements of
the twisted Dirac operator separate into Fourier modes obeying the first
order ODE c'(t) = -i (k + a(t)) c(t), whose solutions never vanish, so the
kernel dimension under (anti-)APS boundary conditions reduces to counting
eigenvalue sign patterns at the two ends:

  APS:  k + a(0) <  0  and  k + a(T) >  0,
  aAPS: k + a(0) >= 0  and  k + a(T) <= 0.

The half-open conventions encode the asymmetric treatment of the eigenvalue
zero at the two boundary components.  The index formula on the cylinder is

  index = ch - (h1 + h2 + eta1 - eta2) / 2,

with ch = a(T) - a(0) (the curvature integral; the A-hat form is 1 in two
dimensions), h = 1 iff a is an integer (else 0), and
eta(a) = 1 - 2 frac(a) for non-integer a, 0 otherwise.  The relative charges
are Q_L = ch - (h1 - h2 + eta1 - eta2)/2, Q_R = -Q_L, and the chiral charge
Q_chir = -2 ch + h1 - h2 + eta1 - eta2 = -2 Q_L.

Only for k between -a(0) and -a(T) can k + a change sign between the ends,
so the count examines those k and one more on either side: no cutoff to set.

Boundary eigenvalues within the guard band (1e-12, 1e-9) of zero are treated
as undecidable and raise GuardBandError; magnitudes at or below 1e-12 are
snapped to exact zero and handled by the half-open conventions.

Complementarity dim_ker_APS(profile) = dim_ker_aAPS(time reflection) holds
whenever both boundary operators are invertible (no integer endpoint); with
a zero boundary eigenvalue the half-open conventions break the naive swap.

The mode check integrates the counted modes together with a numpy RK4, so
this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from ._stencils import require_normal
from .errors import DomainError, GuardBandError, StabilityError

GUARD_LOW = 1e-12
GUARD_HIGH = 1e-9
_BASE_STEPS = 1000  # RK4 steps of the mode check, unless a moves too fast
MAX_K = 10**5  # largest ceil(max(|a(0)|, |a(T)|)) + 2 of a counted profile
MAX_MODE_SAMPLES = 2 * 10**6  # RK4 nodes times counted modes in the mode check


@dataclass(frozen=True)
class ConnectionProfile:
    """Smooth holonomy parameter a(t) on [0, T].

    a is a callable of t that takes an array of times and returns a's values
    on them, or takes one float and returns one value: arrays of times are
    sampled in one call when a accepts them, else by one call per time
    (`_on_times`).  a must be constant on the first and last 5% of [0, T],
    its collars (product form near the boundary, so the transgression term
    vanishes).
    """

    a: object  # callable t -> a(t), on an array of times or on a float
    T: float

    def __post_init__(self):
        if self.T <= 0:
            raise DomainError("time extent must be positive")
        require_normal(f"the sample spacing T / {2 * _BASE_STEPS}", self.T / (2 * _BASE_STEPS))
        for t0, t1 in ((0.0, 0.05 * self.T), (0.95 * self.T, self.T)):
            vals = _on_times(self.a, np.linspace(t0, t1, 16))
            if not np.max(np.abs(vals - vals[0])) <= 1e-12:  # NaN samples are refused too
                raise DomainError("a profile must be constant on its collars near the ends")

    @property
    def endpoints(self):
        return float(self.a(0.0)), float(self.a(self.T))

    @cached_property
    def _samples(self):
        """a on linspace(0, T, 2 _BASE_STEPS + 1), sampled once per profile:
        the nodes of chern_integral and of the mode check at its base n."""
        return _sample_a(self, 2 * _BASE_STEPS + 1)


def _on_times(a, ts):
    """a on the array of times ts: one call on the array when a accepts it
    and returns one value per time; otherwise (TypeError/ValueError, or a
    result of another shape) one call per time, on Python floats."""
    try:
        vals = np.asarray(a(ts))
        if vals.shape == ts.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([a(t) for t in ts.tolist()])


def _sample_a(profile: ConnectionProfile, count: int) -> np.ndarray:
    """a on linspace(0, T, count), by the rule of `_on_times`."""
    return _on_times(profile.a, np.linspace(0.0, profile.T, count))


def _smootherstep(s):
    # products, not powers: numpy's array ** is not C pow, and a float call
    # must give the bits of an array call
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 - 15.0 * s + 6.0 * (s * s))


def ramp_profile(a0: float, a1: float, T: float = 10.0) -> ConnectionProfile:
    """C^2 ramp from a0 to a1, constant on 5% collars at both ends; a takes
    an array of times or a float."""

    def a(t):
        s = (t - 0.05 * T) / (0.9 * T)
        return a0 + (a1 - a0) * _smootherstep(s)

    return ConnectionProfile(a=a, T=T)


def _snap(value):
    """Apply the guard-band policy to a boundary eigenvalue."""
    if abs(value) <= GUARD_LOW:
        return 0.0
    if abs(value) < GUARD_HIGH:
        raise GuardBandError(
            f"boundary eigenvalue {value} inside the guard band ({GUARD_LOW}, {GUARD_HIGH})"
        )
    return value


def _mode_solution_moduli(profile: ConnectionProfile, ks) -> np.ndarray:
    """|c(T)/c(0)| for the mode ODEs c' = -i (k + a(t)) c, one per k (each should be 1).

    Classical RK4 with n steps of h = T/n, all modes at once.  a is sampled
    once (`_sample_a`) on the nodes linspace(0, T, 2n + 1) (step ends and
    midpoints; at the base n these are the profile's shared samples); with
    z = -i h (k + a) on those nodes, one step multiplies c by
    R = 1 + (z0 + 2 zm s1 + 2 zm s2 + z1 s3) / 6, where s1 = 1 + z0/2,
    s2 = 1 + zm s1/2 and s3 = 1 + zm s2.  Step count: n = _BASE_STEPS unless
    h max|k + a| exceeds 0.1 on those samples; then n = ceil(10 T max|k + a|)
    and a is resampled once at that n.  More than MAX_MODE_SAMPLES nodes times
    modes is a DomainError, raised before sampling.
    """
    ks = np.asarray(ks, dtype=float)

    def sample(n):
        if (2 * n + 1) * ks.size > MAX_MODE_SAMPLES:  # inf included
            raise DomainError(f"mode check of {ks.size} modes of the profile over T = "
                              f"{profile.T:.3g} needs {n:.3g} RK4 steps, above {MAX_MODE_SAMPLES} samples")
        avals = profile._samples if n == _BASE_STEPS else _sample_a(profile, 2 * int(n) + 1)
        return ks[None, :] + avals[:, None]

    n = _BASE_STEPS
    rates = sample(n)
    fastest = float(np.max(np.abs(rates)))
    if profile.T / n * fastest > 0.1:
        n = float(np.ceil(10.0 * profile.T * fastest))  # inf where T max|k + a| overflows
        rates = sample(n)
    z = -1j * (profile.T / n) * rates
    z0, zm, z1 = z[:-1:2], z[1::2], z[2::2]
    s1 = 1.0 + 0.5 * z0
    s2 = 1.0 + 0.5 * zm * s1
    s3 = 1.0 + zm * s2
    factors = 1.0 + (z0 + 2.0 * zm * s1 + 2.0 * zm * s2 + z1 * s3) / 6.0
    return np.abs(np.prod(factors, axis=0))


def mode_kernel_count(profile: ConnectionProfile, conditions: str) -> int:
    """Kernel dimension under APS or aAPS conditions by mode counting.

    The admissible modes are integrated across [0, T] to confirm each
    solution stays nontrivial before it is counted.
    """
    if conditions not in ("APS", "aAPS"):
        raise DomainError(f"unknown boundary conditions {conditions!r}")
    a0, aT = profile.endpoints
    if math.ceil(max(abs(a0), abs(aT))) + 2 > MAX_K:
        raise DomainError(f"endpoints {a0:g}, {aT:g} beyond the mode bound |k| <= {MAX_K}")
    ks = []
    for k in range(math.floor(-max(a0, aT)) - 1, math.ceil(-min(a0, aT)) + 2):
        lam1, lam2 = _snap(k + a0), _snap(k + aT)
        if (lam1 < 0.0 < lam2) if conditions == "APS" else (lam2 <= 0.0 <= lam1):
            ks.append(k)
    if ks:
        for k, modulus in zip(ks, _mode_solution_moduli(profile, ks).tolist()):
            if modulus < 0.5:
                raise StabilityError(f"mode k={k} solution degenerated (|c| = {modulus})")
    return len(ks)


def eta_h_circle(a_value: float):
    """(eta, h) of the boundary operator with spectrum {k + a}.

    h = dim ker = 1 iff a is an integer; eta = 1 - 2 frac(a) for non-integer
    a (sawtooth), 0 for integer a.
    """
    a_value = float(a_value)
    frac = a_value - math.floor(a_value)
    if _snap(min(frac, 1.0 - frac)) == 0.0:
        return 0.0, 1
    return 1.0 - 2.0 * frac, 0


class IndexTheoremError(ValueError):
    """An IndexReport whose fields violate an index-theorem invariant."""


@dataclass(frozen=True)
class IndexReport:
    """Index-theorem bookkeeping for one connection profile."""

    dim_ker_aps: int
    dim_ker_aaps: int
    index_lhs: int
    ch_integral: float
    eta1: float
    eta2: float
    h1: int
    h2: int
    index_rhs: float
    q_left: float
    q_right: float
    q_chiral: float

    def __post_init__(self):
        if self.dim_ker_aps < 0 or self.dim_ker_aaps < 0:
            raise IndexTheoremError("kernel dimensions must be nonnegative")
        if self.index_lhs != self.dim_ker_aps - self.dim_ker_aaps:
            raise IndexTheoremError("index_lhs must equal dim_ker_aps - dim_ker_aaps")
        if abs(self.index_rhs - round(self.index_rhs)) > 1e-9:
            raise IndexTheoremError(f"index_rhs = {self.index_rhs} is not integral")
        if round(self.index_rhs) != self.index_lhs:
            raise IndexTheoremError("index theorem violated: lhs != round(rhs)")
        if abs(self.q_left + self.q_right) > 1e-12:
            raise IndexTheoremError("total relative charge must vanish")

    def as_dict(self):
        return asdict(self)


def chern_integral(profile: ConnectionProfile) -> float:
    """ch = integral of a'(t) dt over [0, T], evaluated by quadrature of a'.

    a' is sampled by central differences on the profile's shared samples,
    2 _BASE_STEPS + 1 nodes; the result must agree with the
    fundamental-theorem value a(T) - a(0), else the profile is rejected as
    too rough for the smooth-geometry setting.
    """
    a0, aT = profile.endpoints
    h = profile.T / (2 * _BASE_STEPS)  # linspace's step, bit for bit
    aprime = np.gradient(profile._samples, h)
    ch = float(np.trapezoid(aprime, dx=h))
    if abs(ch - (aT - a0)) > 1e-6 * max(1.0, abs(aT - a0)):
        raise DomainError("quadrature of a' disagrees with a(T) - a(0)")
    return ch


def index_rhs_components(profile: ConnectionProfile):
    """(ch_integral, (eta1, h1), (eta2, h2)) for a collar profile: no transgression."""
    ch = chern_integral(profile)
    a0, aT = profile.endpoints
    eta1, h1 = eta_h_circle(a0)
    eta2, h2 = eta_h_circle(aT)
    return ch, (eta1, h1), (eta2, h2)


def charge_report(profile: ConnectionProfile) -> IndexReport:
    """Full index and relative-charge report for a collar profile."""
    aps = mode_kernel_count(profile, "APS")
    aaps = mode_kernel_count(profile, "aAPS")
    ch, (eta1, h1), (eta2, h2) = index_rhs_components(profile)
    rhs = ch - (h1 + h2 + eta1 - eta2) / 2.0
    q_left = ch - (h1 - h2 + eta1 - eta2) / 2.0
    q_right = -q_left
    q_chiral = -2.0 * ch + h1 - h2 + eta1 - eta2
    return IndexReport(
        dim_ker_aps=aps,
        dim_ker_aaps=aaps,
        index_lhs=aps - aaps,
        ch_integral=ch,
        eta1=eta1,
        eta2=eta2,
        h1=h1,
        h2=h2,
        index_rhs=rhs,
        q_left=q_left,
        q_right=q_right,
        q_chiral=q_chiral,
    )
