"""Checks of kerrlab outputs against computations made apart from kerrlab.

Every function here takes plain data (a parsed JSON report, CSV rows, or
arrays) and raises CheckError when the data break a documented property.
Nothing here imports kerrlab: the Boyer-Lindquist metric and the Carter
constant are written out below from their textbook forms.
"""

from __future__ import annotations

import csv
import math

import numpy as np


class CheckError(AssertionError):
    """An output of the program broke a property the benchmark checks."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


def rel_err(x, y, floor=1.0):
    return abs(x - y) / max(abs(y), floor)


# ---------------------------------------------------------------------------
# Kerr geometry, written out independently of kerrlab.kerr
# ---------------------------------------------------------------------------


def bl_metric(m, a, r, theta):
    """Covariant Kerr metric in Boyer-Lindquist coordinates (t, r, theta, phi)."""
    s2 = math.sin(theta) ** 2
    sigma = r * r + a * a * math.cos(theta) ** 2
    delta = r * r - 2.0 * m * r + a * a
    g = np.zeros((4, 4))
    g[0, 0] = -(1.0 - 2.0 * m * r / sigma)
    g[0, 3] = g[3, 0] = -2.0 * m * a * r * s2 / sigma
    g[1, 1] = sigma / delta
    g[2, 2] = sigma
    g[3, 3] = (r * r + a * a + 2.0 * m * a * a * r * s2 / sigma) * s2
    return g


def geodesic_invariants(m, a, x, u):
    """(e, l_z, K, norm) of one sample: energy, axial momentum, Carter
    constant K = p_theta^2 + cos^2(theta) (a^2 (mu^2 - e^2) + l_z^2 / sin^2(theta))
    + (l_z - a e)^2 with mu^2 = -g(u, u), and the norm g(u, u)."""
    theta = x[2]
    g = bl_metric(m, a, x[1], theta)
    p = g @ u
    e, lz, norm = -p[0], p[3], float(u @ p)
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    carter = p[2] ** 2 + c2 * (a * a * (-norm - e * e) + lz * lz / s2) + (lz - a * e) ** 2
    return float(e), float(lz), float(carter), norm


# ---------------------------------------------------------------------------
# geometry workload
# ---------------------------------------------------------------------------


def check_metric_sample(m, a, coords, g, g_inv, tol=1e-12):
    """kerr_metric at one point against bl_metric, and g g^-1 = I."""
    ref = bl_metric(m, a, coords[1], coords[2])
    scale = np.max(np.abs(ref))
    err = float(np.max(np.abs(np.asarray(g) - ref)) / scale)
    require(err <= tol, f"kerr_metric g differs from the Boyer-Lindquist metric by {err:.3e}")
    ident = float(np.max(np.abs(np.asarray(g) @ np.asarray(g_inv) - np.eye(4))))
    require(ident <= tol * 10, f"g g^-1 differs from the identity by {ident:.3e}")


# Documented limits, fixed here rather than read from the report's config,
# so that a looser default in the program cannot loosen the benchmark.
KERR_CHECK_TOL = 1e-8          # every kerr-check residual
KERR_CHECK_ORDER_MIN = 1.9     # every kerr-check FD order
DIV_V_TOL = 1e-5               # maxwell-currents div V residual
DIV_V_ORDER_MIN = 1.5          # maxwell-currents div V order under step halving


def check_kerr_check(report, n_points):
    """kerr-check: residuals at or below 1e-8, FD orders at or above 1.9."""
    res = report["results"]
    require(report["passed"] and not report["failures"], f"kerr-check failed: {report['failures']}")
    require(res["n_points"] == n_points, "kerr-check swept the wrong number of points")
    for name, value in res["max_residuals"].items():
        require(value <= KERR_CHECK_TOL, f"{name} residual {value:.3e} above {KERR_CHECK_TOL}")
    require(set(res["max_residuals"]) == {"ky", "conformal_ky", "killing_tensor", "tetrad", "xi"},
            "kerr-check lost a residual")
    for name, orders in res["observed_orders"].items():
        require(len(orders) == min(3, n_points) and min(orders) >= KERR_CHECK_ORDER_MIN,
                f"{name} FD orders {orders} below {KERR_CHECK_ORDER_MIN}")


def check_maxwell_uniform(report, n_points):
    """maxwell-currents --field uniform: div V at or below 1e-5 with order >= 1.5."""
    res = report["results"]
    require(report["passed"] and not report["failures"], f"maxwell-currents failed: {report['failures']}")
    require(len(res["per_point"]) == n_points, "maxwell-currents lost a point")
    for pp in res["per_point"]:
        require(pp["div_V_residual"] <= DIV_V_TOL,
                f"div_V residual {pp['div_V_residual']:.3e} above {DIV_V_TOL}")
        require(pp["div_V_order"] >= DIV_V_ORDER_MIN,
                f"div_V order {pp['div_V_order']:.3f} below {DIV_V_ORDER_MIN}")
        require(pp["Z_max"] > 0.0, "uniform field gave Z = 0, so the order check is vacuous")
        require(pp["leading_energy_density"] >= -1e-12, "negative leading energy density")


def coulomb_failure_is_known(report):
    """True when a Coulomb maxwell-currents report fails only its div_V_order
    checks, with the residual itself at round-off (the known fault)."""
    checks = [f["check"] for f in report["failures"]]
    return (bool(checks) and all(c.startswith("div_V_order[") for c in checks)
            and report["results"]["max_div_V_residual"] <= DIV_V_TOL)


def check_maxwell_coulomb(report, n_points):
    """A Coulomb report that passes must hold the same bounds as the uniform one."""
    res = report["results"]
    require(report["passed"], "coulomb report did not pass")
    require(len(res["per_point"]) == n_points, "maxwell-currents lost a point")
    for pp in res["per_point"]:
        require(pp["div_V_residual"] <= DIV_V_TOL,
                f"coulomb div_V residual {pp['div_V_residual']:.3e} above {DIV_V_TOL}")
        require(pp["div_V_order"] >= DIV_V_ORDER_MIN,
                f"coulomb div_V order {pp['div_V_order']:.3f} below {DIV_V_ORDER_MIN}")


def check_constraint_pair(ham_coarse, mom_coarse, ham_fine, mom_fine, order_min=1.9, fine_max=1e-6):
    """Schwarzschild time-symmetric slice: scalar-flat and k = 0, so the
    Hamiltonian residual must fall at second order and the momentum
    residual must vanish."""
    h1 = float(np.max(np.abs(ham_coarse)))
    h2 = float(np.max(np.abs(ham_fine)))
    require(h2 <= fine_max, f"Hamiltonian residual {h2:.3e} above {fine_max}")
    require(h2 > 0.0 and math.log2(h1 / h2) >= order_min,
            f"Hamiltonian residual order {math.log2(h1 / h2) if h2 > 0 else 'inf'} below {order_min}")
    mom = max(float(np.max(np.abs(mom_coarse))), float(np.max(np.abs(mom_fine))))
    require(mom <= 1e-12, f"momentum residual {mom:.3e} on a k = 0 slice")


# ---------------------------------------------------------------------------
# geodesic workload
# ---------------------------------------------------------------------------

GEODESIC_HEADER = ["tau", "t", "r", "theta", "phi", "ut", "ur", "utheta", "uphi",
                   "e", "lz", "k", "norm"]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def check_geodesic(report, header, rows, m, a, t_max, drift_tol=1e-9):
    """Recompute e, l_z, K and the norm along the CSV trajectory; require a
    relative drift <= drift_tol and agreement with the CSV columns."""
    require(report["passed"] and not report["failures"], f"geodesic failed: {report['failures']}")
    require(header == GEODESIC_HEADER, f"geodesic CSV header {header}")
    require(len(rows) == report["results"]["samples"] and len(rows) >= 2, "geodesic CSV row count")
    inv = np.array([geodesic_invariants(m, a, row[1:5], row[5:9]) for row in rows])
    ref = inv[0]
    drift = np.max(np.abs(inv - ref) / np.maximum(np.abs(ref), 1.0), axis=0)
    for name, d in zip(("e", "lz", "carter", "norm"), drift):
        require(d <= drift_tol, f"{name} drifts by {d:.3e} > {drift_tol}")
    require(abs(ref[3] + 1.0) <= 1e-9, f"initial norm {ref[3]} is not -1")
    # the CSV's own columns: e and l_z as defined; k = -K in kerrlab's sign
    for col, mine in ((9, inv[:, 0]), (10, inv[:, 1]), (11, -inv[:, 2]), (12, inv[:, 3])):
        err = float(np.max(np.abs(rows[:, col] - mine) / np.maximum(np.abs(mine), 1.0)))
        require(err <= 1e-10, f"CSV column {header[col]} differs from the recomputation by {err:.3e}")
    require(np.all(np.diff(rows[:, 0]) > 0), "affine parameter is not increasing")
    r_plus = m + math.sqrt(m * m - a * a)
    if report["results"]["plunged"]:
        require(rows[-1, 2] <= r_plus + 0.02 * m, "plunged orbit ends away from the horizon")
    else:
        require(abs(rows[-1, 1] - t_max) <= 1e-6 * t_max, f"orbit ends at t = {rows[-1, 1]}, not {t_max}")
    require(np.all(rows[:, 2] > r_plus), "trajectory enters the horizon")


# ---------------------------------------------------------------------------
# waves workload
# ---------------------------------------------------------------------------

ENERGY_HEADER = ["step", "time", "e_model3", "bulk_increment", "bulk_cumulative", "ratio"]


def check_energy_series(header, rows, t_end):
    """Bookkeeping of an energy/bulk CSV: trapezoid bulk, ratio = bulk / E(0),
    last report at t_end, positive energies."""
    require(header == ENERGY_HEADER, f"energy CSV header {header}")
    require(len(rows) >= 2, "energy CSV has fewer than two reports")
    time, e, b, cum, ratio = rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 5]
    require(rows[0, 1] == 0.0 and np.all(np.diff(time) > 0), "report times are not increasing from 0")
    require(abs(time[-1] - t_end) <= 1e-12 * t_end, f"last report at {time[-1]}, not {t_end}")
    require(np.all(e > 0.0), "non-positive model energy")
    trap = np.concatenate([[0.0], np.cumsum(0.5 * (b[1:] + b[:-1]) * np.diff(time))])
    err = float(np.max(np.abs(cum - trap)) / max(float(np.max(np.abs(trap))), 1e-300))
    require(err <= 1e-12, f"bulk_cumulative is not the trapezoid sum of bulk_increment ({err:.3e})")
    err = float(np.max(np.abs(ratio - cum / e[0]) / np.maximum(np.abs(ratio), 1e-300)))
    require(err <= 1e-12, f"ratio is not bulk_cumulative / e_model3(0) ({err:.3e})")


def check_morawetz(report, header, rows, drift_tol=0.10, scale_tol=1e-12):
    """Grid drift <= 10% (recomputed), x3 scale invariance <= 1e-12, and the
    coarse series ends on the reported coarse ratio."""
    require(report["passed"] and not report["failures"], f"morawetz failed: {report['failures']}")
    res, t_end = report["results"], report["config"]["t_end"]
    coarse, fine = res["ratio_coarse"], res["ratio_fine"]
    require(coarse > 0.0 and math.isfinite(fine), f"ratios {coarse}, {fine}")
    drift = abs(fine - coarse) / abs(coarse)
    require(drift <= drift_tol, f"grid drift {drift:.4f} above {drift_tol}")
    require(res["ratio_scaling_deviation"] <= scale_tol,
            f"x3 scaling deviation {res['ratio_scaling_deviation']:.3e} above {scale_tol}")
    check_energy_series(header, rows, t_end)
    require(rel_err(rows[-1, 5], coarse, 1e-300) <= 1e-15, "CSV ratio does not end on ratio_coarse")


def check_wave_evolve(report, header, rows):
    """final_time = t_end, and the series bookkeeping holds."""
    require(report["passed"] and not report["failures"], f"wave-evolve failed: {report['failures']}")
    res, t_end = report["results"], report["config"]["t_end"]
    require(abs(res["final_time"] - t_end) <= 1e-12 * t_end, f"final time {res['final_time']} != {t_end}")
    check_energy_series(header, rows, t_end)
    require(len(res["series"]) == len(rows), "report series and CSV differ in length")
    require(rel_err(rows[-1, 5], res["ratio_final"], 1e-300) <= 1e-15, "CSV ratio does not end on ratio_final")


# ---------------------------------------------------------------------------
# solvers-1p1 workload
# ---------------------------------------------------------------------------


def goursat_trig_error(phi, extent, n):
    """Max error of a Goursat solution against the exact sin(u) sin(v)."""
    uv = np.arange(n + 1) * (extent / n)
    exact = np.sin(uv)[:, None] * np.sin(uv)[None, :]
    return float(np.max(np.abs(np.asarray(phi) - exact)))


def check_goursat(report, direct_error, order_lo=1.8, order_hi=2.2):
    """Second order from the two reported errors, and the reported coarse
    error equal to the error recomputed from a direct solve."""
    require(report["passed"] and not report["failures"], f"goursat failed: {report['failures']}")
    e1, e2 = report["results"]["errors"]
    require(e1 > 0.0 and e2 > 0.0, "zero Goursat error on trig data")
    order = math.log2(e1 / e2)
    require(order_lo <= order <= order_hi, f"Goursat order {order:.3f} outside [{order_lo}, {order_hi}]")
    require(rel_err(e1, direct_error, 1e-300) <= 1e-9,
            f"reported Goursat error {e1:.6e} differs from the recomputed {direct_error:.6e}")


def check_order_pair(report, key, order_lo=1.8, order_hi=2.2):
    require(report["passed"] and not report["failures"], f"{key} failed: {report['failures']}")
    e1, e2 = report["results"]["errors"]
    order = math.log2(e1 / e2)
    require(order_lo <= order <= order_hi, f"{key} order {order:.3f} outside [{order_lo}, {order_hi}]")


def check_green(report, tol=1e-8):
    require(report["passed"] and not report["failures"], f"green failed: {report['failures']}")
    sets = [report["results"]["clause_residuals"], report["results"]["clause_residuals_with_potential"]]
    require(sets[1] is not None, "green ran without its potential")
    for residuals in sets:
        for name, value in residuals.items():
            bound = 0.0 if name.startswith("support_") else tol
            require(value <= bound, f"green {name} = {value:.3e} above {bound}")


def check_index(report, a0, a1):
    """index = number of integers crossed from a0 to a1, ch = a1 - a0."""
    require(report["passed"] and not report["failures"], f"index failed: {report['failures']}")
    rep = report["results"]["report"]
    crossed = math.floor(a1) - math.floor(a0)
    require(rep["index_lhs"] == crossed, f"index {rep['index_lhs']} != {crossed} integers crossed")
    require(rep["dim_ker_aps"] - rep["dim_ker_aaps"] == crossed, "kernel dimensions disagree with the index")
    require(abs(rep["ch_integral"] - (a1 - a0)) <= 1e-6 * max(1.0, abs(a1 - a0)),
            f"ch_integral {rep['ch_integral']} != a1 - a0 = {a1 - a0}")
    require(abs(rep["index_rhs"] - crossed) <= 1e-9, f"index_rhs {rep['index_rhs']} is not {crossed}")
    require(abs(rep["q_left"] + rep["q_right"]) <= 1e-12, "relative charges do not cancel")
