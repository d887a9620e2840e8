import csv
import json
import os
import subprocess
import sys

import math

import numpy as np
import pytest

import kerrlab
from kerrlab import (DomainError, KerrParams, conformal_ky_residual, kerr_metric,
                     killing_tensor_residual, killing_tensor_residual_fd,
                     killing_yano_residual, killing_yano_residual_fd,
                     random_exterior_points, tetrad_reconstruction_residual, xi_oneform)
from kerrlab.cli import main, parse_config


def run_json(tmp_path, args, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def test_index_example(tmp_path):
    code, rep = run_json(tmp_path,
                         ["index", "--T", "10", "--profile", "ramp:0.3:1.3",
                          "--kmax", "8"])
    assert code == 0
    r = rep["results"]["report"]
    assert r["index_lhs"] == 1 and round(r["index_rhs"]) == 1
    assert rep["passed"] is True
    assert rep["version"]


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 0.9, "n_points": 2}))
    code, rep = run_json(tmp_path,
                         ["kerr-check", "--config", str(cfg), "--a", "0.5"])
    assert code == 0
    assert rep["config"]["a"] == 0.5  # flag wins
    assert rep["config"]["n_points"] == 2  # file value kept


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["kerr-check", "--config", str(cfg)]) == 2


def test_unreadable_config_rejected(tmp_path):
    assert main(["kerr-check", "--config", str(tmp_path / "missing.json")]) == 2


def test_superextreme_rejected():
    assert main(["kerr-check", "--a", "1.5", "--m", "1"]) == 2


def test_morawetz_grid_below_minimum_rejected():
    assert main(["morawetz", "--n-r", "8"]) == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["kerr-check", "--no-such-flag", "1"])
    assert exc.value.code == 2


def test_geodesic_csv_schema(tmp_path):
    csv_path = tmp_path / "traj.csv"
    code, rep = run_json(tmp_path,
                         ["geodesic", "--t-max", "5", "--n-samples", "20",
                          "--csv", str(csv_path)])
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tau", "t", "r", "theta", "phi", "ut", "ur", "utheta",
                       "uphi", "e", "lz", "k", "norm"]
    assert len(rows) == 21
    assert abs(float(rows[1][12]) + 1.0) < 1e-10  # timelike norm column


def test_wave_csv_schema(tmp_path):
    csv_path = tmp_path / "series.csv"
    code, rep = run_json(tmp_path,
                         ["wave-evolve", "--t-end", "2", "--n-r", "64",
                          "--n-theta", "8", "--csv", str(csv_path)])
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "time", "e_model3", "bulk_increment",
                       "bulk_cumulative", "ratio"]
    assert float(rows[1][1]) == 0.0 and float(rows[1][5]) == 0.0
    # the step column counts steps of the dt the evolver used
    dt = rep["results"]["dt"]
    assert all(int(row[0]) == round(float(row[1]) / dt) for row in rows[1:])
    assert int(rows[-1][0]) * dt == pytest.approx(rep["results"]["final_time"])


def test_wave_subcommands_do_not_build_kerr_forms(tmp_path):
    # the wave evolver takes its geometry from WaveGrid alone; the compiled
    # Kerr forms (the scattered kernels of _closed_forms) stay off its CLI paths
    from kerrlab.kerr import _forms

    calls = lambda: _forms.cache_info().hits + _forms.cache_info().misses
    before = calls()
    assert main(["wave-evolve", "--t-end", "1", "--n-r", "32", "--n-theta", "8",
                 "--out", str(tmp_path / "w.json")]) == 0
    assert main(["morawetz", "--t-end", "1", "--n-r", "32", "--n-theta", "8",
                 "--out", str(tmp_path / "m.json")]) == 0
    assert calls() == before


def test_reports_are_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    for _ in range(2):
        code = main(["goursat", "--data", "linear", "--out", str(a)])
        assert code == 0
        if not hasattr(test_reports_are_byte_identical, "_first"):
            test_reports_are_byte_identical._first = a.read_bytes()
    assert a.read_bytes() == test_reports_are_byte_identical._first


def test_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("BHL_THREADS", "3")
    code, rep = run_json(tmp_path, ["goursat", "--data", "linear"])
    assert code == 0 and rep["config"]["threads"] == 3
    monkeypatch.delenv("BHL_THREADS")
    code, rep = run_json(tmp_path, ["goursat", "--data", "linear"], name="r2.json")
    assert code == 0 and rep["config"]["threads"] == 1


def test_index_profile_file(tmp_path):
    prof = tmp_path / "profile.json"
    ts = [0.0, 0.5, 9.5, 10.0]
    prof.write_text(json.dumps({"t": ts, "a": [0.3, 0.3, 1.3, 1.3]}))
    code, rep = run_json(tmp_path, ["index", "--T", "10",
                                    "--profile", str(prof)])
    assert code == 0
    assert rep["results"]["report"]["index_lhs"] == 1


@pytest.mark.parametrize("samples", [[0.3, float("nan"), 1.3, 1.3], [0.3, "x", 1.3, 1.3]])
def test_index_profile_with_bad_samples_is_an_input_error(tmp_path, samples):
    prof = tmp_path / "profile.json"
    prof.write_text(json.dumps({"t": [0.0, 0.5, 9.5, 10.0], "a": samples}))
    assert main(["index", "--T", "10", "--profile", str(prof)]) == 2


def test_invariant_violation_exits_one(tmp_path):
    # an impossible drift tolerance cannot be met: exit code 1, report written
    out = tmp_path / "geo.json"
    code = main(["geodesic", "--t-max", "50", "--drift-tol", "1e-18",
                 "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert rep["failures"]
    f = rep["failures"][0]
    assert {"check", "value", "tolerance"} <= set(f)


@pytest.mark.parametrize("args", [
    ["kerr-check", "--n-points", "0"],
    ["maxwell-currents", "--n-points", "0"],
    ["geodesic", "--n-samples", "0"],
    ["wave-evolve", "--t-end", "-1"],
    ["kerr-check", "--tol", "inf"],
    ["kerr-check", "--m", "nan"],
    ["goursat", "--extent", "nan"],
    ["index", "--profile", "ramp:inf:1"],
])
def test_degenerate_counts_and_extents_are_input_errors(args, capsys):
    assert main(args) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["geodesic", "--tol", "nan"],
    ["wave-evolve", "--report-dt", "0"],
    ["morawetz", "--report-dt", "-1"],
])
def test_non_finite_and_non_positive_values_rejected_before_running(args):
    # resolving the config must refuse these; run() would hang or report every step
    with pytest.raises(DomainError):
        parse_config(args)


def test_uncastable_config_file_value_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": "abc"}))
    assert main(["kerr-check", "--config", str(cfg)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [{"threads": "2"}, {"out": 5}])
def test_threads_and_out_in_a_config_file_are_type_checked(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    assert main(["goursat", "--data", "linear", "--config", str(cfg)]) == 2
    assert "input error" in capsys.readouterr().err


def test_non_integer_threads_env_is_an_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BHL_THREADS", "abc")
    code, rep = run_json(tmp_path, ["goursat", "--data", "linear"])
    assert code == 2 and rep is None
    assert "input error" in capsys.readouterr().err


def test_default_sample_radii_scale_with_the_mass():
    # the default box is [r_plus + 0.3 m, 12 m]; at m = 1 it is the former
    # fixed [r_plus + 0.3, 12] draw for draw
    for m in (1.0, 6.0, 1e10):
        params = KerrParams(m, 0.5)
        r = [p.r for p in random_exterior_points(params, 50, np.random.default_rng(3))]
        assert params.r_plus + 0.3 * m <= min(r) and max(r) <= 12.0 * m
    one = KerrParams(1.0, 0.5)
    fixed = random_exterior_points(one, 20, np.random.default_rng(3), r_range=(None, 12.0))
    default = random_exterior_points(one, 20, np.random.default_rng(3))
    assert np.array_equal([p.coords for p in default], [p.coords for p in fixed])


@pytest.mark.parametrize("args", [
    ["kerr-check", "--m", "6", "--n-points", "5"],
    ["maxwell-currents", "--m", "5", "--n-points", "1"],
    ["kerr-check", "--m", "1e300"],
])
def test_large_masses_end_in_an_exit_code(tmp_path, args):
    # main returns an exit code; a raw traceback would raise out of it here
    assert main(args + ["--out", str(tmp_path / "r.json")]) in (0, 1, 2)


def test_morawetz_builds_each_grid_once(tmp_path, monkeypatch):
    # the x3-scaled run reuses the coarse run's grid
    import kerrlab.waves as waves

    grids = []
    inner = waves.WaveGrid

    def counted(*args, **kwargs):
        grids.append(kwargs["n_r"])
        return inner(*args, **kwargs)

    monkeypatch.setattr(waves, "WaveGrid", counted)
    assert main(["morawetz", "--t-end", "1", "--n-r", "32", "--n-theta", "8",
                 "--out", str(tmp_path / "m.json")]) == 0
    assert grids == [32, 64]


def test_kerr_check_maxima_match_the_one_point_residuals(tmp_path):
    # the sweep evaluates every residual over all points at once; its maxima
    # and FD orders are those of the one-point public functions
    a, n, seed, h = 0.7, 12, 5, 1e-3
    code, rep = run_json(tmp_path, ["kerr-check", "--a", str(a), "--n-points", str(n),
                                    "--seed", str(seed), "--fd-step", str(h)])
    assert code == 0 and rep["results"]["n_points"] == n
    params = KerrParams(1.0, a)
    pts = random_exterior_points(params, n, np.random.default_rng(seed))
    xi = lambda p: np.max(np.abs(kerr_metric(params, p).g_inv.components
                                 @ xi_oneform(params, p).components - np.array([1, 0, 0, 0])))
    expected = {
        "ky": max(killing_yano_residual(params, p) for p in pts),
        "conformal_ky": max(conformal_ky_residual(params, p) for p in pts),
        "killing_tensor": max(killing_tensor_residual(params, p) for p in pts),
        "tetrad": max(tetrad_reconstruction_residual(params, p) for p in pts),
        "xi": max(xi(p) for p in pts),
    }
    order = lambda f, p: math.log2(f(params, p, 2 * h) / f(params, p, h))
    expected_orders = {
        "ky_fd": [order(killing_yano_residual_fd, p) for p in pts[:3]],
        "killing_tensor_fd": [order(killing_tensor_residual_fd, p) for p in pts[:3]],
    }
    close = lambda got, ref: abs(got - ref) <= max(1e-13 * abs(ref), 1e-15)
    got = rep["results"]["max_residuals"]
    assert set(got) == set(expected)
    assert all(close(got[k], v) for k, v in expected.items()), (got, expected)
    for k, v in expected_orders.items():
        assert all(map(close, rep["results"]["observed_orders"][k], v)), k


def test_geometry_subcommands_run_without_sympy(tmp_path):
    # the closed forms are compiled ahead of time into _closed_forms; a fresh
    # interpreter running the geometry subcommands never imports sympy
    code = f"""
import sys
from kerrlab import cli
for argv in (["geodesic", "--t-max", "20", "--n-samples", "20"],
             ["kerr-check", "--n-points", "2"]):
    sub, cfg = cli.parse_config(argv + ["--out", {str(tmp_path / "r.json")!r}])
    assert cli.run(sub, cfg) == 0, sub
assert "sympy" not in sys.modules, "sympy was imported"
"""
    src = os.path.dirname(os.path.dirname(kerrlab.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_subcommands_import_only_the_scipy_they_call(tmp_path):
    # scipy is imported inside the functions that call it: importing the CLI
    # loads none of it, the 1+1 solvers and the geometry checks never need it,
    # and the wave subcommands load only scipy.sparse
    code = f"""
import sys
from kerrlab import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(argv):
    sub, cfg = cli.parse_config(argv + ["--out", {str(tmp_path / "r.json")!r}])
    assert cli.run(sub, cfg) == 0, sub

assert not scipy_modules(), scipy_modules()
for argv in (["green"], ["goursat", "--data", "linear"], ["dirac"],
             ["kerr-check", "--n-points", "2"], ["maxwell-currents", "--n-points", "1"]):
    run(argv)
    assert not scipy_modules(), (argv, scipy_modules())
for argv in (["wave-evolve", "--t-end", "1", "--n-r", "16", "--n-theta", "8"],
             ["morawetz", "--t-end", "1", "--n-r", "32", "--n-theta", "8"]):
    run(argv)
    assert "scipy.integrate" not in sys.modules, argv
    assert "scipy.optimize" not in sys.modules, argv
"""
    src = os.path.dirname(os.path.dirname(kerrlab.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flag", ["--uphi0", "--ur0"])
def test_velocity_beyond_the_norm_resolution_is_an_input_error(tmp_path, flag):
    # at |u| ~ 1e3 the rounding of g_ab u^a u^b (~1e-8) exceeds the 1e-10 norm
    # bound, so no completion meets it
    assert main(["geodesic", flag, "1e3", "--out", str(tmp_path / "g.json")]) == 2
    assert main(["geodesic", flag, "10", "--out", str(tmp_path / "g.json")]) == 0
