"""Gragg-Bulirsch-Stoer integration of y' = fun(tau, y) with step and order
control (Hairer, Norsett & Wanner, Solving ODEs I, II.9).  Column j of the
extrapolation table is the midpoint rule with SUBSTEPS[j] = 2j + 2 substeps;
COST[j] calls of fun fill columns 0..j."""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

SUBSTEPS = (2, 4, 6, 8, 10, 12, 14)
COST = np.cumsum(SUBSTEPS) - np.arange(len(SUBSTEPS))
K_MIN, K_MAX = 5, 6  # columns held: accepting at the first converged one stalls at low order

# weights at h = 0 of the polynomial in h^2 through counts n; T_kk is from columns 0..k, T_k,k-1 1..k
_weights = lambda n: np.array([math.prod(a * a / (a * a - b * b) for b in n if b != a) for a in n])
EXTRAP = [_weights(SUBSTEPS[:k + 1]) for k in range(len(SUBSTEPS))]
DIFF = [w - np.r_[0.0, _weights(SUBSTEPS[1:k + 1])] for k, w in enumerate(EXTRAP)]
# accepted (t, y), the index of the ending event or None, the failure or None, sol(taus)
Solution = namedtuple("Solution", "t y event message sol")


def step(fun, tau, y, h, k):
    """y + T_kk, the extrapolated step of size h from (tau, y), and the midpoint-rule
    increments z - y (rounded far below y) of columns 0..k on a leading axis.  One state
    runs the columns in turn, as fun is cheapest on one state; a batch (n, d), with tau
    and h shaped (n, 1), runs them side by side, one fun call per substep."""
    f0 = fun(tau, y)
    if y.ndim == 1:
        cols = []
        for n in SUBSTEPS[:k + 1]:
            s = h / n
            z0, z1 = 0.0, s * f0
            for i in range(1, n):
                z0, z1 = z1, z0 + 2 * s * fun(tau + i * s, y + z1)
            cols.append(z1)
        cols = np.array(cols)
    else:
        s = h / np.reshape(SUBSTEPS[:k + 1], (-1, 1, 1))
        z0, cols = np.zeros_like(s * f0), s * f0
        for i in range(1, SUBSTEPS[k]):
            c = slice(i // 2, None)  # column j is done after 2j + 1 substeps
            f = fun((tau + i * s[c]).reshape(-1, 1), (y + cols[c]).reshape(-1, y.shape[-1]))
            z0[c], cols[c] = cols[c], z0[c] + 2 * s[c] * f.reshape(cols[c].shape)
    # the weights alternate in sign: summing differences from the last column rounds less
    return y + (cols[-1] + ((cols - cols[-1]).T @ EXTRAP[k]).T), cols


def crossing(fun, tau, y, y1, h, k, i, value):
    """Where y[i] meets value in the step from (tau, y) to y1: Newton in the step
    length, on extrapolated steps from (tau, y), from the root of y[i]'s cubic Hermite."""
    g0, g1, d0, d1 = y[i] - value, y1[i] - value, h * fun(tau, y)[i], h * fun(tau + h, y1)[i]
    x, c2, c3 = g0 / (g0 - g1), 3 * (g1 - g0) - 2 * d0 - d1, 2 * (g0 - g1) + d0 + d1
    for _ in range(6):  # the Hermite cubic is g0 + x (d0 + x (c2 + x c3)) on x in [0, 1]
        x -= (g0 + x * (d0 + x * (c2 + x * c3))) / (d0 + x * (2 * c2 + 3 * x * c3))
    s = h * min(1.0, max(0.0, x))  # a NaN x (a flat cubic) starts from s = 0
    for _ in range(8):
        z = step(fun, tau, y, s, k)[0]
        ds = (z[i] - value) / fun(tau + s, z)[i]
        s = min(h, max(0.0, s - ds))
        if abs(ds) <= 1e-6 * h:
            break
    return tau + s


@np.errstate(all="ignore")  # a step into a non-finite RHS is rejected, not reported
def solve_ivp(fun, t_span, y0, tol, events=()):
    """Integrate y' = fun(tau, y) over t_span at relative and absolute tolerance tol.  An
    event (i, value, direction) ends the run where y[i] crosses value upwards (+1) or
    downwards (-1), and a step controlled like any other lands on it.  sol(taus) takes
    one batched extrapolated step from the nearest accepted state to each tau."""
    tau, t_end = t_span
    ts, ys = [tau], [np.asarray(y0, dtype=float)]
    # the lowest column: K_MIN, or below it where tol is loose (as in Hairer and Wanner's ODEX)
    lo = min(K_MIN, max(2, int(1.5 - 0.6 * math.log10(tol))) - 1)
    h, k, event = 1e-3 * (t_end - tau), lo, None
    while tau < t_end:
        y, h = ys[-1], min(h, t_end - tau)
        if tau + h == tau:  # e.g. a first step 1e-3 (t_end - tau) that underflows to 0
            return Solution(ts, ys, None, f"step {h:.3g} at tau = {tau!r} does not advance tau", None)
        y1, cols = step(fun, tau, y, h, k)
        scale = tol * (1.0 + np.maximum(abs(y), abs(y1)))
        err = [max(math.sqrt(np.mean((DIFF[j] @ cols[:j + 1] / scale) ** 2)), 1e-10) for j in (k - 1, k)]
        # the steps columns k-1 and k ask for (4h at most, for an exact step); NaN shrinks by 50
        H = [h * min(4.0, max(0.02, 0.94 * (0.65 / e) ** (1 / (2 * j + 1)))) for j, e in zip((k - 1, k), err)]
        if not err[1] <= 1.0:
            h = H[1]
            if h < 10 * np.spacing(t_end):
                return Solution(ts, ys, None, f"step {h:.3g} at tau = {tau!r} is below float spacing", None)
            continue
        hits = [] if event is not None else [
            (crossing(fun, tau, y, y1, h, k, i, value), n) for n, (i, value, up) in enumerate(events)
            if up * (y[i] - value) < 0 <= up * (y1[i] - value)]
        if hits:  # step again, onto the first crossing
            t_end, event = min(hits)
            h = t_end - tau
            continue
        tau = t_end if h == t_end - tau else tau + h
        ts.append(tau)
        ys.append(y1)
        work = [COST[j] / Hj for j, Hj in zip((k - 1, k), H)]
        if k > lo and work[0] < 0.8 * work[1]:
            h, k = H[0], k - 1
        elif k < K_MAX and work[1] < 0.9 * work[0]:
            h, k = H[1] * COST[k + 1] / COST[k], k + 1
        else:
            h = H[1]
    ts, ys = np.array(ts), np.array(ys)

    def sol(taus):
        j = np.clip(np.searchsorted(ts, taus), 1, len(ts) - 1)
        near = j - (taus - ts[j - 1] < ts[j] - taus)
        return step(fun, ts[near, None], ys[near], (taus - ts[near])[:, None], lo)[0]

    return Solution(ts, ys, event, None, sol)
