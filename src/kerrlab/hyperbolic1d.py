"""1+1-dimensional solution theory on the flat cylinder R x S^1.

Solvers for the wave operator P = (d_t + i a(t))^2 - d_x^2 + V(x) on the
periodic strip [0, T] x S^1 (circumference 2 pi):

* Cauchy problem (leapfrog, second order),
* Goursat (characteristic) problem in double-null coordinates,
* Dirac equation, both by squaring (solve D^2 v = f and set u = D v) and by
  a direct first-order characteristic evolution used as an oracle,
* advanced/retarded Green's operators with support diagnostics and the
  causal propagator G = G_+ - G_-,
* the formal-dual pairing residual <phi, P f> - <P phi, f>.

P and D act on whole space-time slabs; only the solvers step level by level.
Every finite difference is an entry of the stencil table `kerrlab._stencils`:
along x periodically (`_dx`), along t at the interior levels, with one-sided
end rows where u = D v needs every level.
Each call samples the twist a(t) once, on all the times it needs.  Lattices
of more than MAX_LATTICE_POINTS nodes are rejected before anything is
allocated.  The Goursat problem is marched in blocks of u-rows, so that its
solution is the only array of lattice size (and a caller that reads the
blocks as they come, `_goursat_rows`, holds none); every sum keeps the order
of the additions of the row-by-row scheme, so the result does not depend on
the block size, bit for bit.

Independent problems on one lattice are marched together.  `cauchy_solve`
takes a stack of k problems on an axis between time and x: source
(n_t+1, k, n_x), data (k, n_x), one potential or one per problem.  Every
update acts elementwise along x, so each problem's result equals its own
solve, bit for bit.  `green_clause_residuals` marches its four Green
problems (G_+ f, G_- f, G_+ P f, G_- P f) as one stack, the `green` command
those of both of its potentials, and `dirac_solve_by_squaring` both spinor
components.

Sampling rule for callables: a source f(t, x) or a connection profile is
called once on arrays where it accepts them, and by one scalar call per
point on Python floats where it raises TypeError or ValueError or returns
values of another shape (`_midpoint_blocks`, and `index2d._on_times`).
A twist a(t) is called on floats only.

Real data stay real.  Without a twist, a scalar-wave problem whose fields
(initial data, source, ray data, the field P acts on) are all real is held
and stepped in float64, and its twist terms are left out; otherwise it is
complex128.  A real result equals, bit for bit, the real part of the same
problem run in complex, whose imaginary part is zero.  The Goursat solution
turns complex at the first block of u-rows whose source values are complex.
The Dirac solvers are always complex.

Clifford representation (fixed choice; any unitarily equivalent one works):
gamma^0 = i sigma_1, gamma^1 = sigma_2, so (gamma^0)^2 = -1, (gamma^1)^2 = +1
and the Dirac operator is D = gamma^0 (d_t + i a(t)) + gamma^1 d_x, with
D^2 = -[(d_t + i a)^2 - d_x^2].  Along a t = const slice D = -sigma (d_t + ia)
+ gamma^1 d_x where sigma = -gamma^0 is Clifford multiplication by the unit
normal; sigma^{-1} = gamma^0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _stencils
from ._stencils import _diff
from .errors import DomainError, StabilityError

GAMMA0 = np.array([[0.0, 1j], [1j, 0.0]])
GAMMA1 = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA = -GAMMA0  # Clifford multiplication by the t = 0 unit normal
SIGMA_INV = GAMMA0
MAX_LATTICE_POINTS = 10**7  # nodes of one sampled field (80 MB real, 160 MB complex)
GOURSAT_BLOCK_CELLS = 2**14  # source cells per block of the Goursat march
# Numerical support, for cone_containment and the support clauses of
# green_clause_residuals: where |u| exceeds SUPPORT_THRESHOLD times the peak
# amplitude, allowed SUPPORT_COLLAR_CELLS cells beyond the light cone.  Below
# about one part in 10^3 of the peak, the leapfrog scheme's dispersive
# (Airy-type) front, of width ~ (t/h)^(1/3) cells straddling the exact cone
# and decaying super-exponentially with distance, sets the support radius,
# not the causal propagation.  Everything beyond one cell per time step is
# exactly zero (the hard discrete domain of dependence).
SUPPORT_THRESHOLD = 1e-3
SUPPORT_COLLAR_CELLS = 2


@dataclass(frozen=True)
class Grid1p1:
    """Uniform lattice on [0, T] x S^1 with N_x points on the circle."""

    T: float
    n_x: int
    n_t: int

    def __post_init__(self):
        if self.T <= 0:
            raise DomainError("time extent must be positive")
        if self.n_x < 16:
            raise DomainError("need at least 16 spatial points")
        if self.n_t < 2:
            raise DomainError("need at least 2 time steps")
        if self.cfl > 0.9:
            raise DomainError(f"cfl = {self.cfl:.3f} exceeds 0.9")
        if (self.n_t + 1) * self.n_x > MAX_LATTICE_POINTS:
            raise DomainError(f"{self.n_t + 1:.3g} x {self.n_x:.3g} lattice exceeds {MAX_LATTICE_POINTS} nodes")

    @property
    def h_x(self):
        return 2.0 * math.pi / self.n_x

    @property
    def h_t(self):
        return self.T / self.n_t

    @property
    def cfl(self):
        return self.h_t / self.h_x

    @property
    def x(self):
        return np.arange(self.n_x) * self.h_x

    @property
    def t(self):
        return np.arange(self.n_t + 1) * self.h_t


def _field(x):
    """x as a scalar field: float64 when its values are real, else complex128."""
    x = np.asarray(x)
    return x.astype(float if x.dtype.kind in "biuf" else complex, copy=False)


def sample(grid: Grid1p1, func):
    """Sample func(t, x) on the full space-time lattice, shape (n_t+1, n_x)."""
    T, X = np.meshgrid(grid.t, grid.x, indexing="ij")
    return _field(func(T, X))


def _dx(u, name, h):
    """The stencil `name` along x (axis -1), periodically: applied to one
    wrap-padded copy."""
    r = max(_stencils.STENCILS[name][0])
    return _diff(np.concatenate((u[..., -r:], u, u[..., :r]), axis=-1), name, h, axis=-1)


def _potential(grid, potential):
    """V(x) on the circle's points; zeros without a potential.  A list of
    potentials (None for none) gives one row of V per problem of a stack."""
    if isinstance(potential, list):
        return np.array([_potential(grid, p) for p in potential])
    return np.zeros(grid.n_x) if potential is None else np.asarray(potential(grid.x), dtype=float)


def _twist(twist, t, h):
    """a(t) and its centered rate (a(t + h) - a(t - h)) / 2h on an array of
    times; zeros without a twist.  One scalar call per value, on Python
    floats, since a connection may accept floats only (math.sin)."""
    t = np.asarray(t, dtype=float)
    if twist is None:
        return np.zeros(t.shape), np.zeros(t.shape)
    times = t.ravel().tolist()
    a = np.array([[float(twist(s + k * h)) for s in times] for k in (-1, 0, 1)])
    return a[1].reshape(t.shape), _diff(a, "d1", h)[0].reshape(t.shape)


def cauchy_solve(grid: Grid1p1, f=None, u0=None, u1=None, potential=None, twist=None):
    """Solve (d_t + i a(t))^2 u - d_x^2 u + V(x) u = f with u(0) = u0, d_t u(0) = u1.

    f: None or array (n_t+1, n_x) sampled at the time levels; u0, u1: arrays on
    the circle (default zero).  Returns the field on the full lattice,
    shape (n_t+1, n_x).  Leapfrog with the first-order twist term handled by a
    centered implicit average (scalar solve); second-order accurate.

    A stack of k independent problems is marched at once: f of shape
    (n_t+1, k, n_x), u0 and u1 of shape (k, n_x), the result (n_t+1, k, n_x);
    potential is one callable for all of them or a list of k (None for none).
    Each problem's result equals its own solve, bit for bit.
    """
    n_x, n_t, h_x, h_t = grid.n_x, grid.n_t, grid.h_x, grid.h_t
    u0, u1, f = (None if v is None else _field(v) for v in (u0, u1, f))
    real = twist is None and not any(np.iscomplexobj(v) for v in (u0, u1, f))
    dtype = float if real else complex
    # one level: (n_x,) for one problem, (k, n_x) for a stack of k
    stack = f.shape[1:-1] if f is not None and f.ndim == 3 else \
        next((v.shape[:-1] for v in (u0, u1) if v is not None and v.ndim == 2), ())
    level = stack + (n_x,)
    u0, u1 = (np.zeros(level, dtype) if v is None else v.astype(dtype, copy=False) for v in (u0, u1))
    if u0.shape != level or u1.shape != level:
        raise DomainError(f"initial data must have shape {level}")
    if f is not None:
        f = f.astype(dtype, copy=False)
        if f.shape != (n_t + 1,) + level:
            raise DomainError(f"source must have shape {(n_t + 1,) + level}")
    V = _potential(grid, potential)
    if V.ndim == 2 and V.shape != level:
        raise DomainError(f"{len(V)} potentials for levels of shape {level}: need one per problem")

    out = np.empty((n_t + 1,) + level, dtype)
    out[0] = u0
    a, ap = (v.tolist() for v in _twist(twist, np.arange(n_t) * h_t, h_t))

    # a diverging solve, Taylor start included, overflows quietly: checked below
    with np.errstate(over="ignore", invalid="ignore"):
        # Taylor start: u_tt(0) = f - V u0 + u_xx(0) - 2 i a u1 - (i a' - a^2) u0
        f0 = f[0] if f is not None else 0.0
        utt = f0 - V * u0 + _dx(u0, "d2", h_x)
        if not real:
            utt = utt - 2j * a[0] * u1 - (1j * ap[0] - a[0]**2) * u0
        out[1] = u0 + h_t * u1 + 0.5 * h_t**2 * utt
        for n in range(1, n_t):
            fn = f[n] if f is not None else 0.0
            u, up = out[n], out[n - 1]
            rhs = fn - V * u + _dx(u, "d2", h_x)
            if real:
                out[n + 1] = 2.0 * u - up + h_t**2 * rhs
            else:
                rhs = rhs - (1j * ap[n] - a[n]**2) * u
                # centered implicit treatment of the 2 i a d_t term
                denom = 1.0 + 1j * a[n] * h_t
                out[n + 1] = (2.0 * u - up + h_t**2 * rhs + 1j * a[n] * h_t * up) / denom
    if not np.all(np.isfinite(out)):
        raise StabilityError("non-finite values in the Cauchy solution")
    return out


def apply_wave_operator(grid: Grid1p1, u, potential=None, twist=None):
    """Discrete P u at the interior time levels 1..n_t-1, shape (n_t-1, n_x)."""
    u = _field(u)
    real = twist is None and not np.iscomplexobj(u)
    u = u if real else u.astype(complex, copy=False)
    h_t, h_x = grid.h_t, grid.h_x
    V = _potential(grid, potential)
    mid = u[1:-1]
    out = _diff(u, "d2", h_t)
    if not real:
        a, ap = (v[:, None] for v in _twist(twist, np.arange(1, grid.n_t) * h_t, h_t))
        out = out + 2j * a * _diff(u, "d1", h_t) + (1j * ap - a**2) * mid
    return out - _dx(mid, "d2", h_x) + V * mid


def support_radius(u_slice, x, center, threshold):
    """Largest circle distance from `center` at which |u| exceeds the threshold
    (0 where it nowhere does): a float for one slice, one value per level for
    a slab."""
    d = np.abs((x - center + math.pi) % (2.0 * math.pi) - math.pi)
    rad = np.max(np.where(np.abs(u_slice) > threshold, d, 0.0), axis=-1)
    return float(rad) if rad.ndim == 0 else rad


def cone_containment(grid: Grid1p1, u, center, radius0):
    """Check supp u(t) stays inside the light cone of the initial support.

    Returns the worst excess (in cells) of the numerical support radius over
    radius0 + t + SUPPORT_COLLAR_CELLS * h_x, at the relative amplitude
    threshold SUPPORT_THRESHOLD of the peak of u.
    """
    u = np.asarray(u)
    rad = support_radius(u, grid.x, center, SUPPORT_THRESHOLD * np.max(np.abs(u)))
    allowed = np.minimum(radius0 + np.arange(u.shape[0]) * grid.h_t + SUPPORT_COLLAR_CELLS * grid.h_x,
                         math.pi)
    return float(np.max((rad - allowed) / grid.h_x))


# ---------------------------------------------------------------------------
# Goursat problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoursatField:
    """Solution of the double-null problem on the rectangle [0,U] x [0,V]."""

    uu: np.ndarray  # null coordinate u = t - x values
    vv: np.ndarray  # null coordinate v = t + x values
    phi: np.ndarray  # shape (len(uu), len(vv))


def _midpoint_blocks(f, um, rows):
    """f/4 at the cell midpoints (um[i], um[j]) in (u, v), one block of `rows`
    u-rows at a time (the last block may be shorter): an iterator of arrays
    of shape (rows, n).

    The first block decides how f is called, and every later block is called
    the same way: one call on the (t, x) arrays of the block's midpoints when
    f accepts arrays; otherwise (TypeError/ValueError, or a result that does
    not broadcast to the block's shape) one scalar call per cell, on the
    Python floats of those arrays.  A block is complex when any of its
    values is.
    """
    def midpoints(i):
        uu, vv = um[i:i + rows, None], um[None, :]
        return 0.5 * (uu + vv), 0.5 * (vv - uu)

    def array_call(i):
        t, x = midpoints(i)
        return np.broadcast_to(np.asarray(f(t, x)), t.shape) / 4.0

    def scalar_calls(i):
        t, x = midpoints(i)
        return np.array(list(map(f, t.ravel().tolist(), x.ravel().tolist()))).reshape(t.shape) / 4.0

    starts = range(0, um.size, rows)
    try:
        first = array_call(0)
    except (TypeError, ValueError):
        return map(scalar_calls, starts)
    return itertools.chain([first], map(array_call, starts[1:]))


def goursat_solve(p, q, extent, n, f=None) -> GoursatField:
    """Solve d_u d_v phi = f/4 on [0,extent]^2 with phi(u,0) = p(u), phi(0,v) = q(v).

    p, q are callables on the two null rays from the vertex and must agree at
    the vertex.  f, when given, is the wave-operator source f(t, x) (the
    double-null right-hand side is f/4): a callable on numpy arrays, which is
    sampled in one call per block of u-rows, or on floats only.  No derivative
    data is accepted along the rays: the scheme is explicit, so the solution
    on the future of the rays is fixed by the ray data and the source alone
    (uniqueness).

    The lattice is marched in blocks of about GOURSAT_BLOCK_CELLS cells, so
    that phi is the only array of (n + 1)^2 nodes.  The result does not
    depend on the block size, bit for bit: each sum adds the same terms in
    the same order as the row loop phi[i+1, 1:] += h^2 cumsum(column sums).
    """
    uu, vv, blocks = _goursat_rows(p, q, extent, n, f)
    phi = None
    for start, block in blocks:
        if phi is None:
            phi = np.empty((uu.size, vv.size), block.dtype)
        elif np.iscomplexobj(block) and not np.iscomplexobj(phi):
            phi = phi.astype(complex)
        phi[start:start + len(block)] = block
    return GoursatField(uu=uu, vv=vv, phi=phi)


def _goursat_rows(p, q, extent, n, f=None):
    """The checks of goursat_solve, then (uu, vv, blocks): blocks yields
    (first row, phi on a block of u-rows) in order, from row 0, so that a
    caller that reads phi block by block never holds the whole lattice."""
    if not 0.0 < 2.0 * extent < math.inf:  # u + v reaches 2 extent
        raise DomainError("extent must be positive, and 2 extent finite")
    if n < 8:
        raise DomainError("need at least 8 null cells")
    if (n + 1) ** 2 > MAX_LATTICE_POINTS:
        raise DomainError(f"{n + 1:.3g}^2 null lattice exceeds {MAX_LATTICE_POINTS} nodes")
    h = extent / n
    uu = np.arange(n + 1) * h
    vv = np.arange(n + 1) * h
    pv = _field([p(u) for u in uu])
    qv = _field([q(v) for v in vv])
    if abs(pv[0] - qv[0]) > 1e-12 * max(1.0, abs(pv[0])):
        raise DomainError("null data disagree at the vertex")
    rows = max(1, GOURSAT_BLOCK_CELLS // n)

    # the scheme phi[i+1,j+1] = phi[i+1,j] + phi[i,j+1] - phi[i,j] + h^2 mid[i,j]
    # telescopes to the ray data plus a double cumulative sum of the source,
    # taken block by block: the running column sums carried into a block's
    # first row keep the order of the additions along u, and the sums along v
    # lie within one row
    def blocks():
        yield 0, qv.astype(np.result_type(pv, qv))[None, :]
        sources = _midpoint_blocks(f, uu[:-1] + 0.5 * h, rows) if f is not None else None
        for i, start in enumerate(range(1, n + 1, rows)):
            out = pv[start:start + rows, None] + qv[None, :]
            out -= qv[0]
            out[:, 0] = pv[start:start + rows]
            if sources is not None:
                block = next(sources)
                if i:  # a source may give complex values in some blocks only
                    block = block.astype(np.result_type(block, column_sums), copy=False)
                    block[0] += column_sums
                np.cumsum(block, axis=0, out=block)
                column_sums = block[-1].copy()
                np.cumsum(block, axis=1, out=block)
                block *= h * h
                out = out.astype(np.result_type(out, block), copy=False)
                out[:, 1:] += block
            yield start, out

    return uu, vv, blocks()


def _goursat_error(uu, vv, blocks, exact):
    """max |phi - exact(u, v)| over the null lattice, from the blocks of
    phi's u-rows that `_goursat_rows` yields; exact takes a column of u and
    a row of v."""
    return max(float(np.max(np.abs(block - exact(uu[start:start + len(block), None], vv[None, :]))))
               for start, block in blocks)


# ---------------------------------------------------------------------------
# Dirac equation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiracData1p1:
    """Initial spinor u0 (shape (2, n_x)), optional source f(t, x) -> (2, n_x)
    on the circle's points x, optional connection coefficient a(t)."""

    u0: np.ndarray
    f: object = None
    connection: object = None

    def __post_init__(self):
        u0 = np.asarray(self.u0, dtype=complex)
        if u0.ndim != 2 or u0.shape[0] != 2:
            raise DomainError("initial spinor must have shape (2, n_x)")
        if not np.all(np.isfinite(u0)):
            raise DomainError("non-finite initial spinor")
        object.__setattr__(self, "u0", u0)

    def source_samples(self, grid: Grid1p1):
        """f on every level of the grid, shape (n_t+1, 2, n_x); None without f."""
        if self.f is None:
            return None
        out = np.empty((grid.n_t + 1, 2, grid.n_x), dtype=complex)
        for n, t in enumerate(grid.t):
            out[n] = np.asarray(self.f(t, grid.x), dtype=complex)
        return out


def dirac_solve_direct(data: DiracData1p1, grid: Grid1p1):
    """First-order evolution of D u = f (oracle route).

    d_t u = -i a u - sigma_3 d_x u - gamma^0 f componentwise: the two spinor
    components are advected at speeds +1 and -1.  Classical RK4 in time with
    fourth-order central x-derivatives, so the time-stepping error dominates.
    """
    if data.u0.shape[1] != grid.n_x:
        raise DomainError("initial spinor does not match the grid")
    fs = data.source_samples(grid)
    h_t, h_x = grid.h_t, grid.h_x
    # a at the stage times t_n, t_n + h/2 and t_n + h of every step
    t0 = np.arange(grid.n_t) * h_t
    a_stages = _twist(data.connection, np.stack([t0, t0 + 0.5 * h_t, t0 + h_t], 1), h_t)[0]
    speed = np.array([[1.0], [-1.0]])

    def f_at(time):
        if fs is None:
            return None
        # linear interpolation between sampled levels (sufficient: RK4 stage
        # times are midpoints and the scheme order is limited by the data)
        s = time / h_t
        n = min(int(s), grid.n_t - 1)
        w = s - n
        return (1.0 - w) * fs[n] + w * fs[n + 1]

    def rhs(time, a, u):
        du = -1j * a * u - speed * _dx(u, "d1_4", h_x)
        fv = f_at(time)
        if fv is not None:
            du -= np.einsum("ab,bx->ax", GAMMA0, fv)
        return du

    out = np.empty((grid.n_t + 1, 2, grid.n_x), dtype=complex)
    out[0] = data.u0
    # a diverging solve overflows quietly: the finiteness check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for n, (a0, am, a1) in enumerate(a_stages.tolist()):
            t0 = n * h_t
            u = out[n]
            k1 = rhs(t0, a0, u)
            k2 = rhs(t0 + 0.5 * h_t, am, u + 0.5 * h_t * k1)
            k3 = rhs(t0 + 0.5 * h_t, am, u + 0.5 * h_t * k2)
            k4 = rhs(t0 + h_t, a1, u + h_t * k3)
            out[n + 1] = u + (h_t / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise StabilityError("non-finite values in the direct Dirac solution")
    return out


def dirac_solve_by_squaring(data: DiracData1p1, grid: Grid1p1):
    """Solve D u = f via the squaring construction.

    Solve D^2 v = f, i.e. (d_t + ia)^2 v - d_x^2 v = -f componentwise, with
    v(0) = 0 and (d_t + ia) v(0) = -sigma^{-1} u0; then u = D v.  Along t = 0
    this gives u = u0 and D u = D^2 v = f everywhere.
    """
    if data.u0.shape[1] != grid.n_x:
        raise DomainError("initial spinor does not match the grid")
    fs = data.source_samples(grid)

    v1 = -np.einsum("ab,bx->ax", SIGMA_INV, data.u0)  # (d_t + ia) v at t=0; v=0 there
    # both components in one march: a stack of two scalar problems
    v = cauchy_solve(grid, f=None if fs is None else -fs, u1=v1, twist=data.connection)

    # u = D v on every level: centered interior time stencil, one-sided
    # second order at the temporal ends
    vt = _diff(v, "d1", grid.h_t, end="d1_end")
    return _dirac(_twist(data.connection, grid.t, grid.h_t)[0], v, vt, grid.h_x)


def _dirac(a, u, ut, h_x):
    """D u = gamma^0 (d_t + i a) u + gamma^1 d_x u on a slab of levels, given
    a and d_t u on those levels; d_x is second-order centered."""
    return np.einsum("ab,nbx->nax", GAMMA0, ut + 1j * a[:, None, None] * u) + np.einsum(
        "ab,nbx->nax", GAMMA1, _dx(u, "d1", h_x)
    )


# ---------------------------------------------------------------------------
# Green's operators
# ---------------------------------------------------------------------------


def _source_time_support(f):
    nz = np.where(np.max(np.abs(f), axis=1) > 0.0)[0]
    return (int(nz[0]), int(nz[-1])) if nz.size else None


def _green_source(grid: Grid1p1, f):
    """f as a Green's-operator source: sampled on the lattice, and vanishing
    on a collar of two levels at both temporal ends."""
    f = _field(f)
    if f.shape != (grid.n_t + 1, grid.n_x):
        raise DomainError("source shape does not match the grid")
    supp = _source_time_support(f)
    if supp is not None and (supp[0] < 2 or supp[1] > grid.n_t - 2):
        raise DomainError("source support touches the temporal boundary")
    return f


def green_clause_residuals(grid: Grid1p1, f, potential=None):
    """Max-norm residuals of the three defining clauses for both directions.

    Returns a dict with keys 'GP_retarded', 'PG_retarded', 'support_retarded'
    (and the advanced mirrors) plus 'propagator_kernel' for P(Gf).
    Support excesses are in cells beyond the causal collar.
    """
    return _green_clause_residuals(grid, f, [potential])[0]


def _green_clause_residuals(grid: Grid1p1, f, potentials):
    """green_clause_residuals of f for each potential of a list (None for
    none): G_+ f, G_- f, G_+ P f and G_- P f of every potential are solved
    in one march.  G_+ solves P u = f with u = 0 to the past of supp f; G_-
    mirrors to the future, solved as G_+ of the time-reflected source and
    reflected back (without a twist P has no first-order time term, so it is
    reflection-even)."""
    f = _field(f)
    scale = float(np.max(np.abs(f)))
    if scale == 0.0:
        raise DomainError("empty source")
    f = _green_source(grid, f)
    supp = _source_time_support(f)
    nz_x = np.where(np.max(np.abs(f), axis=0) > 0)[0]
    xs = grid.x[nz_x]
    center = float(np.angle(np.mean(np.exp(1j * xs))) % (2.0 * math.pi))
    radius0 = max(
        support_radius(np.max(np.abs(f), axis=0), grid.x, center, 0.0), grid.h_x
    )

    # per potential, P f computed discretely (padding by zero rows matches the
    # compact support); then the problems f and P f, and both time-reflected
    problems = []
    for potential in potentials:
        Pf = np.zeros_like(f)
        Pf[1:-1] = apply_wave_operator(grid, f, potential=potential)
        Pf = _green_source(grid, Pf)
        problems += [f, Pf, f[::-1], Pf[::-1]]
    solved = cauchy_solve(grid, f=np.stack(problems, axis=1),
                          potential=[p for p in potentials for _ in range(4)])
    n = np.arange(grid.n_t + 1)
    reports = []
    for i, potential in enumerate(potentials):
        gf, gpf, gf_reflected, gpf_reflected = (solved[:, 4 * i + j] for j in range(4))
        out = {}
        for direction, u, gpf in (("retarded", gf, gpf),
                                  ("advanced", gf_reflected[::-1], gpf_reflected[::-1])):
            # clause (ii): P G f = f at interior times
            Pu = apply_wave_operator(grid, u, potential=potential)
            out[f"PG_{direction}"] = float(np.max(np.abs(Pu - f[1:-1])) / scale)
            # clause (i): G P f = f for compactly supported f
            out[f"GP_{direction}"] = float(np.max(np.abs(gpf - f)) / scale)
            # clause (iii): support containment in J^{+/-}(supp f) with a
            # collar, by the numerical-support policy above; a level before
            # the source in the direction's time is allowed no support
            thr = SUPPORT_THRESHOLD * max(float(np.max(np.abs(u))), scale)
            gap = ((n - supp[0]) if direction == "retarded" else (supp[1] - n)) * grid.h_t
            allowed = np.where(gap < 0, np.where(np.max(np.abs(u), axis=1) > thr, 0.0, math.pi),
                               np.minimum(radius0 + gap + SUPPORT_COLLAR_CELLS * grid.h_x, math.pi))
            rad = support_radius(u, grid.x, center, thr)
            out[f"support_{direction}"] = float(np.max((rad - allowed) / grid.h_x))
        # the causal propagator G f = G_+ f - G_- f from the solutions above
        Pg = apply_wave_operator(grid, gf - gf_reflected[::-1], potential=potential)
        out["propagator_kernel"] = float(np.max(np.abs(Pg)) / scale)
        reports.append(out)
    return reports


# ---------------------------------------------------------------------------
# formal dual
# ---------------------------------------------------------------------------


def formal_dual_residual(grid: Grid1p1, f, phi, potential=None):
    """|<phi, P f> - <P phi, f>| on the cylinder.

    Both fields must vanish on a 2-level collar at the temporal ends (compact
    support inside the strip).  P is applied with symmetric fourth-order
    stencils; because the stencils are self-adjoint with respect to the
    uniform lattice inner product, the discrete identity mirrors the
    continuum integration by parts and the residual is at rounding level.
    """
    f, phi = _field(f), _field(phi)
    if f.shape != phi.shape or f.shape != (grid.n_t + 1, grid.n_x):
        raise DomainError("fields must be sampled on the full lattice")
    for name, arr in (("f", f), ("phi", phi)):
        if np.max(np.abs(arr[:2])) > 0 or np.max(np.abs(arr[-2:])) > 0:
            raise DomainError(f"{name} must vanish on the temporal collar")
    V = _potential(grid, potential)

    def apply4(u):
        out = np.zeros_like(u)
        out[2:-2] = _diff(u, "d2_4", grid.h_t)
        return out - _dx(u, "d2_4", grid.h_x) + V[None, :] * u

    w = grid.h_t * grid.h_x
    pair_a = w * np.sum(phi * apply4(f))
    pair_b = w * np.sum(apply4(phi) * f)
    return float(abs(pair_a - pair_b))
