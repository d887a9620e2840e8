"""Tests of the benchmark's own checks: each accepts valid data and rejects a
perturbed copy, so that none of them passes vacuously.

    python3 perfbench/selftest.py

Needs numpy only; kerrlab is not imported. The file name keeps it out of
pytest's default collection.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
import unittest

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


class CheckCase(unittest.TestCase):
    def accepts(self, fn, *args):
        fn(*args)

    def rejects(self, fn, *args):
        with self.assertRaises(CheckError):
            fn(*args)


def _report(results, config=None, passed=True, failures=()):
    return {"config": dict(config or {}), "results": results, "passed": passed, "failures": list(failures)}


class GeometryChecks(CheckCase):
    def test_metric_sample(self):
        m, a, coords = 1.0, 0.7, np.array([0.0, 4.3, 1.1, 0.4])
        g = checks.bl_metric(m, a, coords[1], coords[2])
        g_inv = np.linalg.inv(g)
        self.accepts(checks.check_metric_sample, m, a, coords, g, g_inv)
        bad = g.copy()
        bad[0, 3] = bad[3, 0] = g[0, 3] * (1 + 1e-8)
        self.rejects(checks.check_metric_sample, m, a, coords, bad, g_inv)
        bad_inv = g_inv.copy()
        bad_inv[1, 1] *= 1 + 1e-9
        self.rejects(checks.check_metric_sample, m, a, coords, g, bad_inv)

    def test_bl_metric_inverse_closed_form(self):
        m, a, r, th = 1.0, 0.9, 2.5, 0.8
        s2, sigma, delta = math.sin(th) ** 2, r * r + a * a * math.cos(th) ** 2, r * r - 2 * m * r + a * a
        g = checks.bl_metric(m, a, r, th)
        g_inv = np.linalg.inv(g)
        self.assertAlmostEqual(g_inv[0, 0], -((r * r + a * a) ** 2 - a * a * delta * s2) / (sigma * delta), 12)
        self.assertAlmostEqual(g_inv[0, 3], -2 * m * a * r / (sigma * delta), 12)

    def kerr_check_report(self):
        return _report({"n_points": 50,
                        "max_residuals": dict.fromkeys(("ky", "conformal_ky", "killing_tensor", "tetrad", "xi"),
                                                       1e-13),
                        "observed_orders": {"ky_fd": [2.0, 2.0, 2.0], "killing_tensor_fd": [2.0, 1.99, 2.0]}},
                       {"tol": 1e-8, "order_min": 1.9})

    def test_kerr_check(self):
        rep = self.kerr_check_report()
        self.accepts(checks.check_kerr_check, rep, 50)
        self.rejects(checks.check_kerr_check, rep, 49)
        bad = copy.deepcopy(rep)
        bad["results"]["max_residuals"]["tetrad"] = 2e-8
        self.rejects(checks.check_kerr_check, bad, 50)
        bad = copy.deepcopy(rep)
        bad["results"]["observed_orders"]["ky_fd"][1] = 1.85
        self.rejects(checks.check_kerr_check, bad, 50)
        bad = copy.deepcopy(rep)
        del bad["results"]["max_residuals"]["xi"]
        self.rejects(checks.check_kerr_check, bad, 50)

    def test_kerr_check_limits_ignore_a_looser_config(self):
        loose = self.kerr_check_report()
        loose["config"] = {"tol": 1e-6, "order_min": 1.0}
        loose["results"]["max_residuals"]["ky"] = 5e-7
        self.rejects(checks.check_kerr_check, loose, 50)
        loose = self.kerr_check_report()
        loose["config"] = {"tol": 1e-6, "order_min": 1.0}
        loose["results"]["observed_orders"]["ky_fd"][0] = 1.5
        self.rejects(checks.check_kerr_check, loose, 50)

    def uniform_report(self):
        point = {"div_V_residual": 2e-8, "div_V_order": 2.0, "Z_max": 0.3, "leading_energy_density": 0.1}
        return _report({"per_point": [point], "max_div_V_residual": 2e-8}, {"tol": 1e-5, "order_min": 1.5})

    def test_maxwell_uniform(self):
        rep = self.uniform_report()
        self.accepts(checks.check_maxwell_uniform, rep, 1)
        for key, value in (("div_V_order", 1.4), ("div_V_residual", 2e-5), ("Z_max", 0.0),
                           ("leading_energy_density", -1e-9)):
            bad = copy.deepcopy(rep)
            bad["results"]["per_point"][0][key] = value
            self.rejects(checks.check_maxwell_uniform, bad, 1)

    def test_maxwell_limits_ignore_a_looser_config(self):
        for key, value in (("div_V_order", 1.0), ("div_V_residual", 5e-4)):
            loose = self.uniform_report()
            loose["config"] = {"tol": 1e-3, "order_min": 0.5}
            loose["results"]["per_point"][0][key] = value
            self.rejects(checks.check_maxwell_uniform, loose, 1)
            self.rejects(checks.check_maxwell_coulomb, loose, 1)
        self.accepts(checks.check_maxwell_coulomb, self.uniform_report(), 1)

    def test_coulomb_known_failure(self):
        rep = _report({"max_div_V_residual": 2e-29}, {"tol": 1e-5}, passed=False,
                      failures=[{"check": "div_V_order[0]", "value": -1.2, "tolerance": 1.5}])
        self.assertTrue(checks.coulomb_failure_is_known(rep))
        other = copy.deepcopy(rep)
        other["failures"].append({"check": "div_V_residual[0]", "value": 1.0, "tolerance": 1e-5})
        self.assertFalse(checks.coulomb_failure_is_known(other))
        large = copy.deepcopy(rep)
        large["results"]["max_div_V_residual"] = 1e-3
        self.assertFalse(checks.coulomb_failure_is_known(large))
        large["config"]["tol"] = 1e-2  # a looser config does not make it known
        self.assertFalse(checks.coulomb_failure_is_known(large))
        self.rejects(checks.check_maxwell_coulomb, rep, 1)

    def test_constraint_pair(self):
        zero = np.zeros((2, 3))
        self.accepts(checks.check_constraint_pair, [4e-7, 1e-7], zero, [1e-7, 2.4e-8], zero)
        self.rejects(checks.check_constraint_pair, [4e-7, 1e-7], zero, [2e-7, 1e-8], zero)
        self.rejects(checks.check_constraint_pair, [4e-5, 1e-5], zero, [4e-6, 1e-6 * 1.01], zero)
        self.rejects(checks.check_constraint_pair, [4e-7, 1e-7], zero, [1e-7, 2.4e-8], zero + 1e-9)


def circular_orbit(m, a, r, n=50):
    """Rows of a prograde equatorial circular orbit, in the geodesic CSV layout."""
    omega = math.sqrt(m) / (r ** 1.5 + a * math.sqrt(m))
    g = checks.bl_metric(m, a, r, math.pi / 2)
    ut = 1.0 / math.sqrt(-(g[0, 0] + 2 * omega * g[0, 3] + omega ** 2 * g[3, 3]))
    u = np.array([ut, 0.0, 0.0, omega * ut])
    rows = []
    for tau in np.linspace(0.0, 30.0, n):
        x = np.array([ut * tau, r, math.pi / 2, omega * ut * tau])
        e, lz, carter, norm = checks.geodesic_invariants(m, a, x, u)
        rows.append([tau, *x, *u, e, lz, -carter, norm])
    rows = np.array(rows)
    return _report({"samples": n, "plunged": False}), rows, rows[-1, 1]


class GeodesicChecks(CheckCase):
    def test_carter_constant_schwarzschild(self):
        # equatorial Schwarzschild: K = l_z^2
        _, rows, _ = circular_orbit(1.0, 0.0, 8.0)
        self.assertAlmostEqual(-rows[0, 11], rows[0, 10] ** 2, 12)

    def test_geodesic(self):
        m, a = 1.0, 0.6
        rep, rows, t_max = circular_orbit(m, a, 7.0)
        h = checks.GEODESIC_HEADER
        self.accepts(checks.check_geodesic, rep, h, rows, m, a, t_max)
        bad = rows.copy()
        bad[20, 5] *= 1 + 1e-7  # u^t kicked: e, l_z and the norm jump
        self.rejects(checks.check_geodesic, rep, h, bad, m, a, t_max)
        bad = rows.copy()
        bad[:, 11] *= -1  # Carter column with the wrong sign
        self.rejects(checks.check_geodesic, rep, h, bad, m, a, t_max)
        bad = rows.copy()
        bad[30:, 9] += 1e-8  # energy column no longer what the trajectory says
        self.rejects(checks.check_geodesic, rep, h, bad, m, a, t_max)
        self.rejects(checks.check_geodesic, rep, h, rows, m, a, t_max + 1.0)
        self.rejects(checks.check_geodesic, rep, h, rows, m, a + 1e-3, t_max)
        self.rejects(checks.check_geodesic, rep, h[::-1], rows, m, a, t_max)
        self.rejects(checks.check_geodesic, _report({"samples": 49, "plunged": False}), h, rows, m, a, t_max)


def energy_rows(t_end=30.0, n=9):
    time = np.linspace(0.0, t_end, n)
    e = 2.0 + 0.1 * np.cos(time)
    b = 0.5 + 0.2 * np.sin(time)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (b[1:] + b[:-1]) * np.diff(time))])
    return np.column_stack([np.arange(n) * 10, time, e, b, cum, cum / e[0]])


class WaveChecks(CheckCase):
    def morawetz(self):
        rows = energy_rows()
        rep = _report({"ratio_coarse": rows[-1, 5], "ratio_fine": rows[-1, 5] * 1.03,
                       "ratio_grid_drift": 0.03, "ratio_scaling_deviation": 2e-16}, {"t_end": 30.0})
        return rep, rows

    def test_morawetz(self):
        rep, rows = self.morawetz()
        h = checks.ENERGY_HEADER
        self.accepts(checks.check_morawetz, rep, h, rows)
        for key, value in (("ratio_scaling_deviation", 1e-11), ("ratio_fine", rows[-1, 5] * 1.2),
                           ("ratio_coarse", rows[-1, 5] * (1 + 1e-12))):
            bad = copy.deepcopy(rep)
            bad["results"][key] = value
            self.rejects(checks.check_morawetz, bad, h, rows)
        for col, idx, delta in ((4, 3, 1e-6), (5, 4, 1e-9), (1, -1, -0.5), (2, 2, -10.0)):
            bad = rows.copy()
            bad[idx, col] += delta
            self.rejects(checks.check_morawetz, rep, h, bad)

    def test_wave_evolve(self):
        rows = energy_rows(20.0)
        rep = _report({"final_time": 20.0, "ratio_final": rows[-1, 5], "series": rows.tolist()}, {"t_end": 20.0})
        h = checks.ENERGY_HEADER
        self.accepts(checks.check_wave_evolve, rep, h, rows)
        bad = copy.deepcopy(rep)
        bad["results"]["final_time"] = 20.0 + 1e-9
        self.rejects(checks.check_wave_evolve, bad, h, rows)
        bad = copy.deepcopy(rep)
        bad["results"]["series"] = bad["results"]["series"][:-1]
        self.rejects(checks.check_wave_evolve, bad, h, rows)
        self.rejects(checks.check_wave_evolve, _report(rep["results"], {"t_end": 20.0}, passed=False,
                                                       failures=[{"check": "x"}]), h, rows)


class SolverChecks(CheckCase):
    def test_goursat(self):
        extent, n = 1.0, 16
        uv = np.arange(n + 1) * (extent / n)
        phi = np.sin(uv)[:, None] * np.sin(uv)[None, :] + 1e-5 * np.outer(uv, uv)
        err = checks.goursat_trig_error(phi, extent, n)
        self.assertAlmostEqual(err, 1e-5, 15)
        rep = _report({"errors": [err, err / 4.0]})
        self.accepts(checks.check_goursat, rep, err)
        self.rejects(checks.check_goursat, rep, err * 1.1)
        self.rejects(checks.check_goursat, _report({"errors": [err, err / 2.0]}), err)
        self.rejects(checks.check_goursat, _report({"errors": [err, err / 8.0]}), err)

    def test_order_pair(self):
        self.accepts(checks.check_order_pair, _report({"errors": [4e-4, 1e-4]}), "dirac")
        self.rejects(checks.check_order_pair, _report({"errors": [4e-4, 3e-4]}), "dirac")

    def test_green(self):
        clauses = {"GP_retarded": 1e-14, "PG_retarded": 1e-14, "support_retarded": 0.0}
        rep = _report({"clause_residuals": clauses, "clause_residuals_with_potential": dict(clauses)})
        self.accepts(checks.check_green, rep)
        for key, value in (("PG_retarded", 1e-7), ("support_retarded", 1.0)):
            bad = copy.deepcopy(rep)
            bad["results"]["clause_residuals_with_potential"][key] = value
            self.rejects(checks.check_green, bad)
        bad = copy.deepcopy(rep)
        bad["results"]["clause_residuals_with_potential"] = None
        self.rejects(checks.check_green, bad)

    def test_index(self):
        good = {"dim_ker_aps": 0, "dim_ker_aaps": 2, "index_lhs": -2, "ch_integral": -2.0, "index_rhs": -2.0,
                "q_left": -1.7, "q_right": 1.7}
        rep = _report({"report": good})
        self.accepts(checks.check_index, rep, 0.3, -1.7)
        self.rejects(checks.check_index, rep, 0.3, -0.7)
        for key, value in (("index_lhs", -1), ("ch_integral", -1.9), ("index_rhs", -2.1), ("q_right", 1.6)):
            bad = copy.deepcopy(rep)
            bad["results"]["report"][key] = value
            self.rejects(checks.check_index, bad, 0.3, -1.7)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(tracing.LAYER_METRICS))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, {"setup_s", "wall_s", "peak_rss_mb"})

    def test_rounds_depend_on_seconds_only(self):
        for w in workloads.WORKLOADS.values():
            self.assertEqual(w.rounds(24), w.rounds(24.0))
            self.assertGreaterEqual(w.rounds(0.1), 1)
            self.assertLessEqual(w.rounds(1e6), w.max_rounds)
        self.assertEqual(workloads.WORKLOADS["geometry"].rounds(1e6), workloads.GEOMETRY_MAX_ROUNDS)

    def test_coulomb_spins_distinct(self):
        spins = [workloads.coulomb_spin(k) for k in range(workloads.GEOMETRY_MAX_ROUNDS)]
        self.assertEqual(len(set(spins)), len(spins))
        self.assertTrue(all(0.0 < a < 0.9 for a in spins))


class Execute(unittest.TestCase):
    """worker.execute counts every raising call or check as one failed operation."""

    def test_failures_are_counted(self):
        import worker

        def broken_check(value):
            raise KeyError("phi")  # as a check reading the result of an earlier, failed call

        def raising_call():
            raise RuntimeError("boom")

        def known(value):
            return value == "known"

        def fails(value):
            checks.require(False, "bad")

        cases = (
            (workloads.Op("ok", lambda: 1, lambda v: None), (False, False)),
            (workloads.Op("raises", raising_call, lambda v: None), (True, True)),
            (workloads.Op("check raises", lambda: 1, broken_check), (True, True)),
            (workloads.Op("check fails", lambda: 1, fails), (True, True)),
            (workloads.Op("known", lambda: "known", fails, known), (True, False)),
            (workloads.Op("not known", lambda: "other", fails, known), (True, True)),
        )
        stderr, sys.stderr = sys.stderr, open(os.devnull, "w")
        try:
            for op, expected in cases:
                self.assertEqual(worker.execute(op)[1:], expected, op.name)
        finally:
            sys.stderr.close()
            sys.stderr = stderr


if __name__ == "__main__":
    unittest.main()
