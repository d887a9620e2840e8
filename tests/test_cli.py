import csv
import io
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
from kerrlab.cli import COMMON, SCHEMAS, main, parse_config


def subprocess_env():
    """The environment of a fresh interpreter that imports this kerrlab."""
    src = os.path.dirname(os.path.dirname(kerrlab.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


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


def _stdlib_csv(header, rows):
    """The CSV that csv.writer writes of repr'd floats and plain values."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def test_csv_text_writes_the_stdlib_writers_bytes():
    # the wave handlers' rows (an int step, then floats) and geodesic's
    # all-float rows, with every special value a series can hold
    from types import SimpleNamespace

    from kerrlab.cli import _csv_text, _energy_rows

    values = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-300, 1e300, 5e-324,
              -5e-324, 2.0 / 3.0, -1.5e-7, 123456789.0]
    reports = [SimpleNamespace(time=0.25 * i, e_model3=v, bulk_increment=-v,
                               bulk_cumulative=values[i - 1], ratio=v / 3.0)
               for i, v in enumerate(values)]
    waves = _energy_rows(reports, 0.25)
    geodesic = (["tau", "t", "r", "theta", "phi", "ut", "ur", "utheta", "uphi",
                 "e", "lz", "k", "norm"],
                np.resize(np.array(values), (len(values), 13)).tolist())
    for header, rows in (waves, geodesic, (waves[0], [])):
        assert _csv_text(header, rows) == _stdlib_csv(header, rows)
    assert "\n1,0.25,-inf,inf,inf,-inf\n" in _csv_text(*waves)


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


def test_index_profile_spike_is_resolved(tmp_path):
    # a between constant collars spikes to 50, so the 1000-step RK4 of the mode
    # check (h |k + a| up to 2.45) would let the counted mode decay to |c| ~ 5e-12;
    # the step-count rule resamples with h |k + a| <= 0.1
    prof = tmp_path / "profile.json"
    prof.write_text(json.dumps({"t": [0.0, 20.0, 25.0, 30.0, 50.0],
                                "a": [0.3, 0.3, 50.0, 1.3, 1.3]}))
    code, rep = run_json(tmp_path, ["index", "--T", "50", "--profile", str(prof)])
    assert code == 0
    report = rep["results"]["report"]
    assert (report["dim_ker_aps"], report["dim_ker_aaps"]) == (1, 0)


def _solve_with_a_nan_rhs(fun, *args, **kwargs):
    # the integrator's own failure: every step of a NaN right-hand side is
    # rejected until the step falls below the spacing of floats
    from kerrlab._gbs import solve_ivp

    return solve_ivp(lambda tau, y: np.full_like(y, np.nan), *args, **kwargs)


@pytest.mark.parametrize("args, module, name, fake", [
    (["index"], "index2d", "_mode_solution_moduli", lambda profile, ks: np.zeros(len(ks))),
    (["geodesic", "--t-max", "5"], "geodesics", "solve_ivp", _solve_with_a_nan_rhs),
], ids=["index", "geodesic"])
def test_numeric_failures_exit_one_without_a_traceback(tmp_path, capsys, monkeypatch,
                                                       args, module, name, fake):
    # a degenerated mode or a failed ODE solve is an invariant violation
    monkeypatch.setattr(f"kerrlab.{module}.{name}", fake)
    assert main(args + ["--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "invariant violation" in err and "Traceback" not in err


def test_violated_index_theorem_is_a_reported_failure(tmp_path, monkeypatch):
    # a report whose sides disagree is a failed check, not an input error
    monkeypatch.setattr("kerrlab.index2d.chern_integral", lambda profile: 0.5)
    code, rep = run_json(tmp_path, ["index"])
    assert code == 1
    assert [f["check"] for f in rep["failures"]] == ["index_theorem"]
    assert "not integral" in rep["failures"][0]["value"]


def test_invariant_violation_exits_one(tmp_path, monkeypatch):
    # a Carter-constant drift past the fixed bound: exit code 1, report written
    monkeypatch.setattr("kerrlab.geodesics._drift",
                        lambda series: np.array([0.0, 0.0, 1e-6, 0.0]))
    out = tmp_path / "geo.json"
    code = main(["geodesic", "--t-max", "50", "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert rep["failures"]
    f = rep["failures"][0]
    assert {"check", "value", "tolerance"} <= set(f)
    assert f == {"check": "k_drift", "value": 1e-6, "tolerance": 1e-9}


# The config keys that could only move a check's bound, and index's collar,
# which no profile could use: each is unknown, as a flag and as a config key.
REMOVED_KEYS = [("kerr-check", "tol"), ("kerr-check", "order_min"), ("geodesic", "drift_tol"),
                ("morawetz", "stability_tol"), ("maxwell-currents", "tol"),
                ("maxwell-currents", "order_min"), ("green", "tol"), ("goursat", "tol"),
                ("goursat", "order_min"), ("goursat", "order_max"), ("dirac", "order_min"),
                ("dirac", "order_max"), ("index", "collar")]


@pytest.mark.parametrize("sub,key", REMOVED_KEYS, ids=lambda v: v)
def test_removed_bound_keys_are_input_errors(tmp_path, capsys, sub, key):
    with pytest.raises(SystemExit) as exc:  # argparse's exit
        main([sub, f"--{key.replace('_', '-')}", "1", "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert f"input error: unknown config keys: {key}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_a_looser_drift_bound_cannot_pass_a_failing_orbit(tmp_path, capsys):
    # the plunge at a = 0.999 fails the fixed drift bound (ROADMAP item 4),
    # and no flag can loosen that bound into a pass
    argv = ["geodesic", "--a", "0.999", "--r0", "4", "--out", str(tmp_path / "r.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--drift-tol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --drift-tol 1e-8" in capsys.readouterr().err
    assert main(argv) == 1


@pytest.mark.parametrize("args", [
    ["kerr-check", "--n-points", "0"],
    ["maxwell-currents", "--n-points", "0"],
    ["geodesic", "--n-samples", "0"],
    ["wave-evolve", "--t-end", "-1"],
    ["kerr-check", "--fd-step", "inf"],
    ["kerr-check", "--m", "nan"],
    ["goursat", "--extent", "nan"],
    ["index", "--profile", "ramp:inf:1"],
])
def test_degenerate_counts_and_extents_are_input_errors(args, capsys):
    assert main(args) == 2
    assert "input error" in capsys.readouterr().err


# Lattices, mode ranges and RK4 grids too large to allocate or loop over:
# each must be refused as an input error before any work starts.
OVERSIZE_1P1 = [
    ["green", "--cfl=1e-300"], ["dirac", "--cfl=1e-300"],
    ["green", f"--n-x={10**18}"], ["dirac", f"--n-x={10**18}"], ["goursat", f"--n={10**18}"],
    ["index", f"--kmax={10**18}"], ["index", "--profile=ramp:1e300:0"], ["index", "--T=1e300"],
    ["green", "--cfl=1e-300", f"--n-x={10**30}"],  # a time step that underflows to 0
]
# every numeric key of the 1+1 subcommands at 0, -1 and a value far too large
EDGE_1P1 = [[sub, f"--{key.replace('_', '-')}={value}"]
            for sub in ("green", "goursat", "dirac", "index")
            for key, (caster, _default, _help) in SCHEMAS[sub].items() if caster in (int, float)
            for value in ("0", "-1", "1e300" if caster is float else str(10**18))]
EDGE_1P1 += [argv for argv in OVERSIZE_1P1 if argv not in EDGE_1P1]
# the removed bound keys of these subcommands, at the same values: unknown flags
REMOVED_1P1 = [[sub, f"--{key.replace('_', '-')}={value}"]
               for sub, key in REMOVED_KEYS if sub in ("green", "goursat", "dirac")
               for value in ("0", "-1", "1e300")]
EDGE_1P1 += REMOVED_1P1

# Seeds, counts, strengths, tolerances and starts the geometry subcommands
# cannot use: each must be refused as an input error.  A field strength of
# 1e300 overflows V_ab, one of 1e308 the field itself, and one of 0 makes
# every current and residual 0; an integrator tolerance of 1e300 lets the
# integrator step where the geodesic right-hand side is NaN.  On the
# ergosurface (r = 2m on the equator, g_tt = 0) with u^phi = 0 the
# normalization does not fix u^t.
EDGE_GEOMETRY = [
    ["kerr-check", "--seed=-1"], ["maxwell-currents", "--seed=-1"],
    ["kerr-check", f"--n-points={10**18}"], ["maxwell-currents", f"--n-points={10**18}"],
    ["geodesic", f"--n-samples={10**18}"], ["geodesic", "--n-samples=1"],
    ["maxwell-currents", "--strength=1e300"], ["maxwell-currents", "--strength=1e308"],
    ["maxwell-currents", "--strength=0"],
    ["geodesic", "--tol=1e300"],
    ["geodesic", "--r0=2", "--uphi0=0"],
]
# Valid inputs at the edge of the geometry: each must run to a report.  The
# random point of the first lies in the ergoregion, where d_t is spacelike;
# the geodesic starts on the ergosurface, where u^t solves a linear equation.
VALID_GEOMETRY = [
    ["maxwell-currents", "--field=uniform", "--a=0.857895", "--n-points=1", "--seed=798987954"],
    ["geodesic", "--r0=2"],
]
EDGE_GEOMETRY += VALID_GEOMETRY

EDGE_DRIVER = """
import contextlib, io, json, signal, sys, traceback, warnings
from kerrlab.cli import main

warnings.simplefilter("always")  # a warning shows in every case that raises it

def hung(signum, frame):
    raise TimeoutError("no exit code within 5 s")

signal.signal(signal.SIGALRM, hung)
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    signal.alarm(5)
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", sys.argv[2]])
    except SystemExit as exc:  # argparse's exit
        code = exc.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    signal.alarm(0)
    print(json.dumps([code, err.getvalue()]), flush=True)
"""


def edge_outcomes(tmp_path_factory, cases):
    # one fresh interpreter runs every case, so that a case that hangs ends in
    # its alarm, or the whole run in the subprocess timeout, not in the suite
    out = str(tmp_path_factory.mktemp("edge") / "r.json")
    argv = [sys.executable, "-c", EDGE_DRIVER, json.dumps(cases), out]
    try:
        stdout = subprocess.run(argv, env=subprocess_env(), capture_output=True, text=True,
                                timeout=120).stdout
    except subprocess.TimeoutExpired as exc:
        stdout = (exc.stdout or b"").decode()
    outcomes = [json.loads(line) for line in stdout.splitlines()]
    return outcomes + [[None, "killed by the subprocess timeout"]] * (len(cases) - len(outcomes))


@pytest.fixture(scope="module")
def edge_1p1_outcomes(tmp_path_factory):
    return edge_outcomes(tmp_path_factory, EDGE_1P1)


@pytest.mark.parametrize("case", range(len(EDGE_1P1)), ids=[" ".join(a) for a in EDGE_1P1])
def test_1p1_edge_values_end_in_an_exit_code(edge_1p1_outcomes, case):
    code, err = edge_1p1_outcomes[case]
    refused = EDGE_1P1[case] in OVERSIZE_1P1 + REMOVED_1P1
    assert code in ((2,) if refused else (0, 1, 2)), err
    assert "Traceback" not in err
    assert "Warning" not in err


def test_diverging_dirac_solve_fails_without_a_warning(tmp_path_factory):
    # a connection of 1e15 overflows the direct RK4 solve: an invariant
    # violation, reported without numpy's overflow and invalid-value warnings
    [(code, err)] = edge_outcomes(tmp_path_factory, [["dirac", "--twist-a0=1e15"]])
    assert code == 1, err
    assert "non-finite values in the direct Dirac solution" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.fixture(scope="module")
def edge_geometry_outcomes(tmp_path_factory):
    return edge_outcomes(tmp_path_factory, EDGE_GEOMETRY)


_INVALID_GEOMETRY = [i for i, argv in enumerate(EDGE_GEOMETRY) if argv not in VALID_GEOMETRY]


@pytest.mark.parametrize("case", _INVALID_GEOMETRY,
                         ids=[" ".join(EDGE_GEOMETRY[i]) for i in _INVALID_GEOMETRY])
def test_geometry_seeds_and_counts_out_of_range_are_input_errors(edge_geometry_outcomes, case):
    code, err = edge_geometry_outcomes[case]
    assert code == 2, err
    assert "input error" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("argv", VALID_GEOMETRY, ids=" ".join)
def test_geometry_edge_points_run_to_a_passing_report(edge_geometry_outcomes, argv):
    code, err = edge_geometry_outcomes[EDGE_GEOMETRY.index(argv)]
    assert code == 0, err
    assert "Traceback" not in err and "Warning" not in err


# Wave grids and orbit spans too large to hold or to integrate: each must be
# refused as an input error before any array exists (for morawetz, before
# its fine run is forked).
OVERSIZE_WAVES_GEODESIC = [
    ["wave-evolve", f"--n-r={10**18}"], ["morawetz", f"--n-theta={10**18}"],
    ["geodesic", "--t-max=1e300"],
    # more steps times points than waves.MAX_STEP_POINTS, refused before a step
    ["wave-evolve", "--m-phi=100000"], ["wave-evolve", "--t-end=1e300"],
    ["morawetz", "--t-end=1e9"],
    # a report at every step of a long run: more than waves.MAX_REPORTS reports
    *([sub, "--n-r=16", "--n-theta=8", "--t-end=20000", "--report-dt=1e-300"]
      for sub in ("wave-evolve", "morawetz")),
]


@pytest.fixture(scope="module")
def oversize_waves_geodesic_outcomes(tmp_path_factory):
    return edge_outcomes(tmp_path_factory, OVERSIZE_WAVES_GEODESIC)


@pytest.mark.parametrize("case", range(len(OVERSIZE_WAVES_GEODESIC)),
                         ids=[" ".join(a) for a in OVERSIZE_WAVES_GEODESIC])
def test_oversize_wave_grids_and_orbit_spans_are_input_errors(oversize_waves_geodesic_outcomes, case):
    code, err = oversize_waves_geodesic_outcomes[case]
    assert code == 2, err
    assert "input error" in err
    assert "Traceback" not in err and "Warning" not in err


# Pulses that vanish on the tortoise range: one that underflows to 0, one
# whose squared distance overflows.  Every energy and ratio would read 0.
VANISHING_WAVES = [[sub, f"--n-r={n_r}", f"--center={center}"]
                   for sub, n_r in (("wave-evolve", 64), ("morawetz", 32))
                   for center in ("1000", "1e300")]


@pytest.fixture(scope="module")
def vanishing_wave_outcomes(tmp_path_factory):
    return edge_outcomes(tmp_path_factory, VANISHING_WAVES)


@pytest.mark.parametrize("case", range(len(VANISHING_WAVES)),
                         ids=[" ".join(a) for a in VANISHING_WAVES])
def test_initial_data_vanishing_on_the_grid_are_an_input_error(vanishing_wave_outcomes, case):
    code, err = vanishing_wave_outcomes[case]
    assert code == 2, err
    assert "initial data vanish on the grid" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("args", [
    ["wave-evolve", "--n-r=64", "--family=gaussian-ingoing", "--width=1e-160"],
    ["morawetz", "--width=1e-200"],
    ["wave-evolve", "--width=1e200"],
])
def test_pulse_width_whose_square_is_not_a_normal_double_is_an_input_error(args, capsys):
    # width**2 underflows (or overflows): the data would be inf * 0 = NaN
    with pytest.raises(DomainError, match="does not square to a normal double"):
        parse_config(args)
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


# A config-file value of each caster's key at a JSON type that argparse
# refuses for its flag; a bool is refused for every key.
WRONG_TYPE = {int: 1.5, str: 5, float: "1.5"}


@pytest.mark.parametrize("sub, keys",
                         [(sub, SCHEMAS[sub]) for sub in SCHEMAS] + [("goursat", COMMON)],
                         ids=list(SCHEMAS) + ["out,threads"])
def test_config_file_values_of_the_wrong_json_type_are_input_errors(tmp_path, sub, keys):
    cfg = tmp_path / "cfg.json"
    for key, (caster, _default, _help) in keys.items():
        for value in (True, WRONG_TYPE[caster]):
            cfg.write_text(json.dumps({key: value}))
            with pytest.raises(DomainError, match=f"config value for {key} must be"):
                parse_config([sub, "--config", str(cfg)])


@pytest.mark.parametrize("sub", SCHEMAS)
def test_config_file_values_resolve_as_their_flags_do(tmp_path, monkeypatch, sub):
    # every key at once, at a value of its JSON type (a float key also at an
    # integer): the resolved config, types included, is that of the flags;
    # null is the default
    monkeypatch.delenv("BHL_THREADS", raising=False)
    schema = {**SCHEMAS[sub], **COMMON}
    cfg = tmp_path / "cfg.json"
    for number in (0.75, 2):
        values = {key: {int: 7, float: number, str: str(tmp_path / key)}[caster]
                  for key, (caster, _default, _help) in schema.items()}
        cfg.write_text(json.dumps(values))
        from_file = parse_config([sub, "--config", str(cfg)])
        from_flags = parse_config([sub] + [f"--{key.replace('_', '-')}={value}"
                                           for key, value in values.items()])
        assert from_file == from_flags
        assert [type(v) for v in from_file[1].values()] == [type(v) for v in from_flags[1].values()]
    cfg.write_text(json.dumps(dict.fromkeys(schema)))
    assert parse_config([sub, "--config", str(cfg)]) == parse_config([sub])


@pytest.mark.parametrize("content", [b"\x80\xff{}", b"[" * 10**5], ids=["not-utf8", "nested"])
@pytest.mark.parametrize("sub, profile", [("kerr-check", False), ("index", True)])
def test_undecodable_json_files_are_input_errors(tmp_path, capsys, sub, profile, content):
    # bytes that are not UTF-8, and arrays nested beyond the recursion limit
    path = tmp_path / "bytes.json"
    path.write_bytes(content)
    argv = [sub, "--profile" if profile else "--config", str(path),
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert "is not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


# A report or CSV path that cannot be written: each is refused before any work.
UNWRITABLE = {
    "out-directory": lambda d: ["goursat", "--data", "linear", "--out", str(d)],
    "out-missing-parent": lambda d: ["goursat", "--data", "linear",
                                     "--out", str(d / "no" / "r.json")],
    "csv-directory": lambda d: ["geodesic", "--t-max", "10", "--csv", str(d),
                                "--out", str(d.parent / "r.json")],
    "csv-missing-parent": lambda d: ["geodesic", "--t-max", "10", "--csv", str(d / "no" / "x.csv"),
                                     "--out", str(d.parent / "r.json")],
}


@pytest.mark.parametrize("case", UNWRITABLE)
def test_unwritable_out_and_csv_paths_are_input_errors(tmp_path, capsys, case):
    directory = tmp_path / "d"
    directory.mkdir()
    assert main(UNWRITABLE[case](directory)) == 2
    assert "input error" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["d"] and os.listdir(directory) == []  # nothing written


SAME_FILE_RUNS = {"geodesic": ["geodesic", "--t-max", "10"],
                  "wave-evolve": ["wave-evolve", "--t-end", "1", "--n-r", "16", "--n-theta", "8"]}


@pytest.mark.parametrize("csv_path", ["same.json", "./same.json", "sub/../same.json"])
@pytest.mark.parametrize("sub", SAME_FILE_RUNS)
def test_out_and_csv_naming_one_file_is_an_input_error(tmp_path, monkeypatch, capsys, sub, csv_path):
    # the CSV would replace the report: refused before any work, nothing written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main(SAME_FILE_RUNS[sub] + ["--out", "same.json", "--csv", csv_path]) == 2
    assert "input error" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["sub"]


def test_geodesic_initial_conserved_is_the_first_csv_row(tmp_path):
    # the report's integrals and the CSV's come from one formula
    out, csv_out = tmp_path / "g.json", tmp_path / "g.csv"
    argv = ["geodesic", "--a", "0.9", "--r0", "6", "--t-max", "50", "--out", str(out),
            "--csv", str(csv_out)]
    assert main(argv) == 0
    initial = json.loads(out.read_text())["results"]["initial_conserved"]
    with open(csv_out, newline="") as fh:
        header, first = list(csv.reader(fh))[:2]
    row = dict(zip(header, map(float, first)))
    assert initial == {"e": row["e"], "lz": row["lz"], "k": row["k"]}


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


@pytest.mark.parametrize("field", ["uniform", "coulomb"])
def test_maxwell_currents_blocks_agree_with_the_one_point_functions(monkeypatch, field):
    # 7 points in blocks of 3, so that the last block is short: each entry is
    # what the one-point public functions give at its point, bit for bit for
    # the currents and the Maxwell residual, and to 1e-14 relative for the NP
    # scalars and the energy density (the tetrad, g and ginv are evaluated
    # there one point at a time, on the closed forms' scalar path)
    import kerrlab.cli as cli
    from kerrlab import (V_tensor, coulomb_field, dominant_energy_value,
                         maxwell_divergence_residual, np_scalars, principal_tetrad,
                         uniform_field)
    from kerrlab.maxwell import _CALIBRATIONS

    monkeypatch.setattr(cli, "MAXWELL_BLOCK_CENTRES", 3)
    _, cfg = parse_config(["maxwell-currents", "--field", field, "--n-points", "7"])
    results, _, _ = cli._run_maxwell_currents(cfg)
    params, step, q = KerrParams(cfg["m"], cfg["a"]), cfg["step"], cfg["strength"]
    F_field = lambda pts: q * _CALIBRATIONS[field][1](params, pts)
    make = {"uniform": uniform_field, "coulomb": coulomb_field}[field]
    points = random_exterior_points(params, 7, np.random.default_rng(cfg["seed"]))
    assert len(results["per_point"]) == 7
    for p, pp in zip(points, results["per_point"]):
        rep, rep2 = (V_tensor(params, F_field, p, step=h) for h in (step, 2 * step))
        assert pp["point"] == list(p.coords)
        assert pp["div_V_residual"] == rep.div_V_residual
        assert pp["div_V_order"] == cli._order(rep2.div_V_residual, rep.div_V_residual)
        assert pp["Z_max"] == np.max(np.abs(rep.Z.components))
        assert np.array_equal(pp["eta"], rep.eta.components)
        assert pp["maxwell_residual"] == maxwell_divergence_residual(params, F_field, p, step=step)

        phis = np_scalars(make(params, q, p), principal_tetrad(params, p))
        scale = max(map(abs, phis[:3]))
        for name, value in zip(("phi0", "phi1", "phi2"), phis):
            assert abs(pp["np_scalars"][name] - value) <= 1e-14 * scale, name
        assert abs(pp["np_scalars"]["upsilon"] - phis[3]) <= 1e-14 * abs(phis[3])
        ginv = kerr_metric(params, p).g_inv.components.real
        v = -ginv[:, 0] / math.sqrt(-ginv[0, 0])
        energy = dominant_energy_value(params, rep.eta, p, v, v)
        assert abs(pp["leading_energy_density"] - energy) <= 1e-14 * abs(energy)


def test_maxwell_currents_memory_is_bounded_by_a_block():
    # the nested stencils are held one block of centres at a time, so 256
    # points (8 blocks) take little more memory than 32 (one block)
    import tracemalloc

    from kerrlab.cli import _run_maxwell_currents

    def peak(n_points):
        _, cfg = parse_config(["maxwell-currents", "--n-points", str(n_points)])
        tracemalloc.start()
        try:
            _run_maxwell_currents(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the field's calibration, cached from here on
    assert peak(256) <= 1.5 * peak(32)


def test_morawetz_builds_each_grid_once(tmp_path, monkeypatch):
    # the x3-scaled run reuses the coarse run's grid
    import kerrlab.waves as waves

    monkeypatch.delenv("BHL_THREADS", raising=False)  # serial: both grids built here
    grids = []
    inner = waves.WaveGrid

    def counted(*args, **kwargs):
        grids.append(kwargs["n_r"])
        return inner(*args, **kwargs)

    monkeypatch.setattr(waves, "WaveGrid", counted)
    assert main(["morawetz", "--t-end", "1", "--n-r", "32", "--n-theta", "8",
                 "--out", str(tmp_path / "m.json")]) == 0
    assert grids == [32, 64]


# a rotating mode on a grid fine enough for the fixed 10 % grid drift: its
# drift reads 0.028, against 0.106 at --n-r 32
MORAWETZ_SMALL = ["morawetz", "--t-end", "1", "--n-r", "48", "--n-theta", "8",
                  "--a", "0.1", "--m-phi", "1"]


def _count_forks(monkeypatch):
    # the pids of the children this process forks
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _assert_no_child_left(pids):
    import multiprocessing

    assert multiprocessing.active_children() == []
    for pid in pids:
        with pytest.raises(ProcessLookupError):  # exited and reaped
            os.kill(pid, 0)


def test_morawetz_threads_leave_the_report_identical(tmp_path, monkeypatch):
    # --threads >= 2 runs the fine grid in one forked child; the results and
    # CSV are those of the serial run, and no child outlives the call
    pids = _count_forks(monkeypatch)
    texts = {}
    for threads in (1, 2, 64):
        out, table = tmp_path / f"m{threads}.json", tmp_path / f"m{threads}.csv"
        assert main(MORAWETZ_SMALL + ["--threads", str(threads), "--out", str(out),
                                      "--csv", str(table)]) == 0
        assert len(pids) == (0 if threads == 1 else 1), threads  # at most one child
        pids_seen = list(pids)
        pids.clear()
        _assert_no_child_left(pids_seen)
        results = json.dumps(json.loads(out.read_text())["results"], sort_keys=True)
        texts[threads] = (results, table.read_bytes())
    assert texts[1] == texts[2] == texts[64]

    # where fork fails or the platform has none, --threads 2 runs serially
    import multiprocessing

    def no_fork():
        raise BlockingIOError("no process to spare")

    for target, name, fake in ((os, "fork", no_fork),
                               (multiprocessing, "get_all_start_methods", lambda: ["spawn"])):
        with monkeypatch.context() as patch:
            patch.setattr(target, name, fake)
            out, table = tmp_path / f"serial-{name}.json", tmp_path / f"serial-{name}.csv"
            assert main(MORAWETZ_SMALL + ["--threads", "2", "--out", str(out),
                                          "--csv", str(table)]) == 0
        results = json.dumps(json.loads(out.read_text())["results"], sort_keys=True)
        assert (results, table.read_bytes()) == texts[1], name
    assert pids == []
    _assert_no_child_left(pids)


@pytest.mark.parametrize("failing_n_r", [96, 48])  # the forked fine run, the parent's coarse run
def test_morawetz_failure_on_either_side_of_the_fork(tmp_path, capfd, monkeypatch, failing_n_r):
    # a StabilityError in the child reaches the parent's exit code and
    # message; one in the parent kills the child; no traceback either way
    import kerrlab.waves as waves
    from kerrlab import StabilityError

    inner = waves.evolve

    def failing(field, *args, **kwargs):
        if field.grid.n_r == failing_n_r:
            raise StabilityError(f"blew up on the {failing_n_r}-point grid")
        return inner(field, *args, **kwargs)

    monkeypatch.setattr(waves, "evolve", failing)
    pids = _count_forks(monkeypatch)
    assert main(MORAWETZ_SMALL + ["--threads", "2", "--out", str(tmp_path / "m.json")]) == 1
    err = capfd.readouterr().err
    assert f"invariant violation: blew up on the {failing_n_r}-point grid" in err
    assert "Traceback" not in err
    assert len(pids) == 1
    _assert_no_child_left(pids)


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


@pytest.mark.parametrize("a", [0.5, 0.9])
def test_kerr_check_residuals_are_even_in_the_spin(tmp_path, a):
    # a -> -a with phi -> -phi maps Kerr onto itself, and every residual is a
    # norm of a tensor that the map carries into its counterpart: the two
    # reports' results must agree.  Tolerance 0: each closed form is exactly
    # even or odd in a, entry by entry, so every residual and order is equal
    # bit for bit, not only to rounding.
    (code, rep), (code_rev, rep_rev) = (
        run_json(tmp_path, ["kerr-check", f"--a={s * a}", "--n-points", "3"], name=f"{s}.json")
        for s in (1, -1))
    assert code == code_rev == 0
    assert rep_rev["results"] == rep["results"]


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
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_subcommand_loads_scipy(tmp_path):
    # kerrlab depends on numpy alone: importing the CLI loads no scipy, nor
    # does any subcommand, the 1+1 solvers, the index theorem, the geometry
    # checks, the geodesics (a bound orbit and a plunge) and the wave runs
    code = f"""
import sys
from kerrlab import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(argv):
    sub, cfg = cli.parse_config(argv + ["--out", {str(tmp_path / "r.json")!r}])
    assert cli.run(sub, cfg) == 0, sub

assert not scipy_modules(), scipy_modules()
for argv in (["green"], ["goursat", "--data", "linear"], ["goursat", "--data", "trig"],
             ["dirac"], ["index"], ["kerr-check", "--n-points", "2"],
             ["maxwell-currents", "--n-points", "1"], ["geodesic", "--t-max", "20"],
             ["geodesic", "--r0", "4", "--utheta0", "0", "--uphi0", "0", "--ur0", "-0.5"],
             ["wave-evolve", "--t-end", "1", "--n-r", "16", "--n-theta", "8"],
             ["morawetz", "--t-end", "1", "--n-r", "32", "--n-theta", "8"]):
    run(argv)
    assert not scipy_modules(), (argv, scipy_modules())
"""
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flag", ["--uphi0", "--ur0"])
def test_velocity_beyond_the_norm_resolution_is_an_input_error(tmp_path, flag):
    # at |u| ~ 1e3 the rounding of g_ab u^a u^b (~1e-8) exceeds the 1e-10 norm
    # bound, so no completion meets it
    assert main(["geodesic", flag, "1e3", "--out", str(tmp_path / "g.json")]) == 2
    assert main(["geodesic", flag, "10", "--out", str(tmp_path / "g.json")]) == 0


def test_the_benchmark_tracer_counts_the_geodesic_rhs_and_the_wave_step(tmp_path):
    # perfbench's Tracer wraps geodesics.solve_ivp and waves._step by name; a
    # rename that leaves it counting nothing would empty its per-layer metrics
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    code = f"""
import sys
sys.path.insert(0, {perfbench!r})
from tracing import Tracer
from kerrlab import cli

tracer = Tracer()
tracer.install()
for argv in (["geodesic", "--t-max", "20", "--n-samples", "20"],
             ["wave-evolve", "--t-end", "1", "--n-r", "16", "--n-theta", "8"]):
    sub, cfg = cli.parse_config(argv + ["--out", {str(tmp_path / "r.json")!r}])
    assert cli.run(sub, cfg) == 0, sub
counts = {{name: count for (name, _round), (count, _s) in tracer.counters.items()}}
assert counts.get("geodesics.rhs", 0) > 0 and counts.get("waves.step", 0) > 0, counts
"""
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_a_nan_fails_every_bound_check():
    # a check fails every value not within its bound: NaN fails a one-sided
    # bound as it fails a range, while _order's inf still passes a lower bound
    from kerrlab.cli import _check

    failures = []
    for bounds in ({"hi": 1.0}, {"lo": 1.0}, {"lo": 0.0, "hi": 1.0}):
        _check(failures, "nan", math.nan, **bounds)
    assert [f["tolerance"] for f in failures] == [1.0, 1.0, [0.0, 1.0]]
    passing = []
    for value, bounds in ((math.inf, {"lo": 1.5}), (1.0, {"hi": 1.0}), (1.0, {"lo": 1.0}),
                          (0.5, {"lo": 0.0, "hi": 1.0})):
        _check(passing, "within", value, **bounds)
    assert passing == []
    _check(failures, "below", -math.inf, lo=1.5)
    _check(failures, "above", 2.0, hi=1.0)
    assert [f["check"] for f in failures[3:]] == ["below", "above"]
