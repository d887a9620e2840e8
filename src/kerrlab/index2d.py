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

Boundary eigenvalues within the guard band (1e-12, 1e-9) of zero are treated
as undecidable and raise GuardBandError; magnitudes at or below 1e-12 are
snapped to exact zero and handled by the half-open conventions.

Complementarity dim_ker_APS(profile) = dim_ker_aAPS(time reflection) holds
whenever both boundary operators are invertible (no integer endpoint); with
a zero boundary eigenvalue the half-open conventions break the naive swap.

scipy.integrate is imported on first use, so importing kerrlab skips it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, GuardBandError

GUARD_LOW = 1e-12
GUARD_HIGH = 1e-9


@dataclass(frozen=True)
class ConnectionProfile:
    """Smooth holonomy parameter a(t) on [0, T].

    collar=True asserts a is constant on the first and last 5% of [0, T]
    (product form near the boundary, so the transgression term vanishes).
    """

    a: object  # callable t -> float
    T: float
    collar: bool = True

    def __post_init__(self):
        if self.T <= 0:
            raise DomainError("time extent must be positive")
        if self.collar:
            for t0, t1 in ((0.0, 0.05 * self.T), (0.95 * self.T, self.T)):
                ts = np.linspace(t0, t1, 16)
                vals = np.array([self.a(t) for t in ts])
                if np.max(np.abs(vals - vals[0])) > 1e-12:
                    raise DomainError("collar mode requires a constant near the ends")

    @property
    def endpoints(self):
        return float(self.a(0.0)), float(self.a(self.T))


def _smootherstep(s):
    s = min(max(s, 0.0), 1.0)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def ramp_profile(a0: float, a1: float, T: float = 10.0) -> ConnectionProfile:
    """C^2 ramp from a0 to a1, constant on 5% collars at both ends."""

    def a(t):
        s = (t - 0.05 * T) / (0.9 * T)
        return a0 + (a1 - a0) * _smootherstep(s)

    return ConnectionProfile(a=a, T=T, collar=True)


def _snap(value):
    """Apply the guard-band policy to a boundary eigenvalue."""
    if abs(value) <= GUARD_LOW:
        return 0.0
    if abs(value) < GUARD_HIGH:
        raise GuardBandError(
            f"boundary eigenvalue {value} inside the guard band ({GUARD_LOW}, {GUARD_HIGH})"
        )
    return value


def _mode_solution_modulus(profile: ConnectionProfile, k: int) -> float:
    """|c(T)/c(0)| for the mode ODE c' = -i (k + a(t)) c (should be 1)."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, y: [-(k + profile.a(t)) * y[1], (k + profile.a(t)) * y[0]],
        (0.0, profile.T),
        [1.0, 0.0],
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError(f"mode ODE integration failed for k={k}")
    return float(np.hypot(sol.y[0, -1], sol.y[1, -1]))


def mode_kernel_count(profile: ConnectionProfile, k_max: int, conditions: str) -> int:
    """Kernel dimension under APS or aAPS conditions by mode counting.

    Each admissible mode is integrated across [0, T] to confirm its solution
    stays nontrivial before it is counted.
    """
    if conditions not in ("APS", "aAPS"):
        raise DomainError(f"unknown boundary conditions {conditions!r}")
    a0, aT = profile.endpoints
    needed = int(math.ceil(max(abs(a0), abs(aT)))) + 1
    if k_max < needed:
        raise DomainError(f"k_max={k_max} too small; need at least {needed}")
    count = 0
    for k in range(-k_max, k_max + 1):
        lam1 = _snap(k + a0)
        lam2 = _snap(k + aT)
        if conditions == "APS":
            hit = lam1 < 0.0 and lam2 > 0.0
        else:
            hit = lam1 >= 0.0 and lam2 <= 0.0
        if hit:
            modulus = _mode_solution_modulus(profile, k)
            if modulus < 0.5:
                raise RuntimeError(f"mode k={k} solution degenerated (|c| = {modulus})")
            count += 1
    return count


def eta_h_circle(a_value: float):
    """(eta, h) of the boundary operator with spectrum {k + a}.

    h = dim ker = 1 iff a is an integer; eta = 1 - 2 frac(a) for non-integer
    a (sawtooth), 0 for integer a.
    """
    a_value = float(a_value)
    frac = a_value - math.floor(a_value)
    if min(frac, 1.0 - frac) <= GUARD_LOW:
        return 0.0, 1
    if min(frac, 1.0 - frac) < GUARD_HIGH:
        raise GuardBandError(f"holonomy {a_value} inside the integer guard band")
    return 1.0 - 2.0 * frac, 0


def eta_abel_oracle(a_value: float, s: float = 1e-4) -> float:
    """Abel-summed eta series sum_k sign(k + a) exp(-s |k + a|).

    Independent check of the closed form in eta_h_circle; converges to
    1 - 2 frac(a) as s -> 0 for non-integer a.  The two geometric tails are
    summed in closed form so s can be taken small.
    """
    frac = a_value - math.floor(a_value)
    if frac == 0.0:
        return 0.0
    # positive eigenvalues: frac, frac+1, ... ; negative: frac-1, frac-2, ...
    pos = math.exp(-s * frac) / (1.0 - math.exp(-s))
    neg = math.exp(-s * (1.0 - frac)) / (1.0 - math.exp(-s))
    return pos - neg


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
            raise ValueError("kernel dimensions must be nonnegative")
        if self.index_lhs != self.dim_ker_aps - self.dim_ker_aaps:
            raise ValueError("index_lhs must equal dim_ker_aps - dim_ker_aaps")
        if abs(self.index_rhs - round(self.index_rhs)) > 1e-9:
            raise ValueError(f"index_rhs = {self.index_rhs} is not integral")
        if round(self.index_rhs) != self.index_lhs:
            raise ValueError("index theorem violated: lhs != round(rhs)")
        if abs(self.q_left + self.q_right) > 1e-12:
            raise ValueError("total relative charge must vanish")

    def as_dict(self):
        return asdict(self)


def chern_integral(profile: ConnectionProfile) -> float:
    """ch = integral of a'(t) dt over [0, T], evaluated by quadrature of a'.

    a' is sampled by central differences; the result must agree with the
    fundamental-theorem value a(T) - a(0), else the profile is rejected as
    too rough for the smooth-geometry setting.
    """
    a0, aT = profile.endpoints
    ts = np.linspace(0.0, profile.T, 2001)
    h = ts[1] - ts[0]
    avals = np.array([profile.a(t) for t in ts])
    aprime = np.gradient(avals, h)
    ch = float(np.trapezoid(aprime, dx=h))
    if abs(ch - (aT - a0)) > 1e-6 * max(1.0, abs(aT - a0)):
        raise DomainError("quadrature of a' disagrees with a(T) - a(0)")
    return ch


def index_rhs_components(profile: ConnectionProfile):
    """(ch_integral, (eta1, h1), (eta2, h2), transgression=0) for a collar profile."""
    if not profile.collar:
        raise DomainError("index evaluation requires collar (product-form) profiles")
    ch = chern_integral(profile)
    a0, aT = profile.endpoints
    eta1, h1 = eta_h_circle(a0)
    eta2, h2 = eta_h_circle(aT)
    return ch, (eta1, h1), (eta2, h2), 0.0


def charge_report(profile: ConnectionProfile, k_max: int = None) -> IndexReport:
    """Full index and relative-charge report for a collar profile."""
    a0, aT = profile.endpoints
    if k_max is None:
        k_max = int(math.ceil(max(abs(a0), abs(aT)))) + 2
    aps = mode_kernel_count(profile, k_max, "APS")
    aaps = mode_kernel_count(profile, k_max, "aAPS")
    ch, (eta1, h1), (eta2, h2), transgression = index_rhs_components(profile)
    rhs = ch + transgression - (h1 + h2 + eta1 - eta2) / 2.0
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


def reversed_profile(profile: ConnectionProfile) -> ConnectionProfile:
    """Time reflection t -> T - t."""
    return ConnectionProfile(a=lambda t: profile.a(profile.T - t), T=profile.T,
                             collar=profile.collar)
