"""Command-line front end: config ingestion, subcommand dispatch, reports.

Contract:
  * one subcommand per invocation; each key of SCHEMAS and COMMON (`out`,
    `threads`) is a flag and a key of the --config JSON file, and resolves to
    the flag, else the file value, else the default.  Unknown keys are
    rejected; a file value must have its key's JSON type (FILE_TYPES), as
    strictly as argparse reads the flag, and null means the default;
  * exit 0 when every check passes its bound, fixed beside `_check` (no flag
    or config key moves one), 1 when a numeric invariant is violated (the
    report lists which residual, its value and bound), 2 for input errors
    (bad flags, bad config, a number outside its key's range in SCHEMAS,
    out-of-domain parameters; `out` and `csv` paths that name a directory,
    lie in none or name one file are refused first);
  * all artifacts are written atomically (temp file + rename); CSV uses '.'
    decimals, '\\n' line endings and a mandatory header row; JSON reports
    embed the fully resolved config and the code version, never timestamps,
    so identical configs produce byte-identical reports.

The threads key (fallback: env var BHL_THREADS, default 1) caps internal
parallelism; it is recorded in every report because it is part of the
determinism contract.  At 2 or more, `morawetz` evolves its fine grid in
one forked child process (never more, whatever the count; serially where
the platform cannot fork) while the parent evolves the coarse and scaled
runs.  The results and CSV are byte-identical to those of --threads 1.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from ._stencils import require_normal
from .errors import (CalibrationError, DomainError, GuardBandError,
                     StabilityError)

# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _write_atomic(path, text):
    path = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".kerrlab-tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_text(header, rows):
    # rows of ints and floats need no quoting: each line is one join of reprs
    return "\n".join([",".join(header), *(",".join(map(repr, row)) for row in rows)]) + "\n"


def _finite(x):
    """Make a value JSON-serializable, mapping non-finite floats to strings."""
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    if isinstance(x, complex):
        return {"re": _finite(x.real), "im": _finite(x.imag)}
    if isinstance(x, (np.floating, np.integer)):
        return _finite(x.item())
    if isinstance(x, np.ndarray):
        return [_finite(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    return x


# Each subcommand: ordered {key: (caster, default, help, range)}; None defaults are
# filled by the handler, and no key moves a check's bound (see _check).  A number
# must be a finite double in its range (lo, hi, why), lo <= value <= hi; a range of
# None is no bound, or one the library checks by name before any work (KerrParams,
# BLPoint's theta0, Grid1p1, WaveGrid, evolve's cfl, integrate_geodesic's t_max and tol).
BIG, TINY = sys.float_info.max, sys.float_info.min  # the largest and smallest normal doubles
POSITIVE = math.ulp(0.0)  # the smallest positive double: a range from it is (0, hi]
MASS = (-math.inf, BIG ** (1 / 6) / 12, "the sample radii reach 12 m, and the closed forms take r^6")
RADIUS = (-math.inf, 1e77, "r <= r* far out, and a float's (r^2 + a^2)^2 raises past 1.158e77")
VELOCITY = (-1e76, 1e76, "the normalization sums three squares, each scaled by r^2 <= 1e154")
FD_STEP = (TINY, BIG / 2, "a quotient divides by it and by twice it, each a normal double")
STEP = (math.nextafter(0.5 / BIG, 1), BIG / 2, "the differences divide by 2 step, whose reciprocal is finite")
TIME = (POSITIVE, math.inf, "time runs forward")
WIDTH = (math.sqrt(TINY), math.sqrt(BIG), "width^2 must be a normal double: the data divide by it")
M_PHI = (-10**77, 10**77, "the energy weights take m_phi^4")
N_X = (1, math.inf, "the spacing is 2 pi / n_x")
COURANT = (POSITIVE, math.inf, "the time step is at most cfl times the spacing")
TWIST = (-math.sqrt(BIG) / 2, math.sqrt(BIG) / 2, "the solvers square the peak |twist_a0| + |twist_a1|")
SEED = (0, math.inf, "numpy's seeds are non-negative")
N_POINTS = (1, 10**4, "more could exhaust the memory or run for hours")
MAXWELL_BLOCK_CENTRES = 32  # maxwell-currents holds the nested stencils of this many points (about 11 MB)
SCHEMAS = {
    "kerr-check": {
        "m": (float, 1.0, "black-hole mass", MASS),
        "a": (float, 0.5, "specific angular momentum", None),
        "n_points": (int, 50, "number of random exterior sample points", N_POINTS),
        "seed": (int, 1, "RNG seed", SEED),
        "fd_step": (float, 1e-3, "finite-difference step for the FD variants", FD_STEP),
    },
    "geodesic": {
        "m": (float, 1.0, "black-hole mass", MASS),
        "a": (float, 0.5, "specific angular momentum", None),
        "r0": (float, 8.0, "initial Boyer-Lindquist radius", RADIUS),
        "theta0": (float, math.pi / 2, "initial polar angle", None),
        "phi0": (float, 0.0, "initial azimuth", None),
        "ur0": (float, 0.0, "initial u^r", VELOCITY),
        "utheta0": (float, 0.02, "initial u^theta", VELOCITY),
        "uphi0": (float, 0.03, "initial u^phi", VELOCITY),
        "causal": (str, "timelike", "timelike or null", None),
        "t_max": (float, 200.0, "coordinate-time horizon", None),
        "tol": (float, 1e-13, "integrator tolerance", None),
        "n_samples": (int, 200, "number of output samples", (-math.inf, 10**5, "it is held whole")),
        "csv": (str, None, "optional trajectory CSV path", None),
    },
    "wave-evolve": {
        "m": (float, 1.0, "black-hole mass", MASS),
        "a": (float, 0.5, "specific angular momentum", None),
        "m_phi": (int, 0, "azimuthal mode number", M_PHI),
        "n_r": (int, 260, "radial grid points", None),
        "n_theta": (int, 32, "polar grid points", None),
        "rstar_min": (float, -25.0, "tortoise-coordinate lower edge", None),
        "rstar_max": (float, 40.0, "tortoise-coordinate upper edge", RADIUS),
        "family": (str, "gaussian-static", "initial-data family", None),
        "center": (float, 0.0, "pulse center in r*", None),
        "width": (float, 3.0, "pulse width in r*", WIDTH),
        "t_end": (float, 20.0, "final time", TIME),
        "cfl": (float, 0.5, "CFL fraction", None),
        "report_dt": (float, None, "report cadence (default t_end / 8)", TIME),
        "csv": (str, None, "optional energy-series CSV path", None),
    },
    "morawetz": {
        "m": (float, 1.0, "black-hole mass", MASS),
        "a": (float, 0.1, "specific angular momentum", None),
        "m_phi": (int, 0, "azimuthal mode number", M_PHI),
        "n_r": (int, 200, "coarse radial grid points (fine run doubles this)", None),
        "n_theta": (int, 16, "coarse polar grid points (fine run doubles this)", None),
        "rstar_min": (float, -40.0, "tortoise-coordinate lower edge", None),
        "rstar_max": (float, 80.0, "tortoise-coordinate upper edge", RADIUS),
        "family": (str, "gaussian-static", "initial-data family", None),
        "center": (float, 10.0, "pulse center in r*", None),
        "width": (float, 4.0, "pulse width in r*", WIDTH),
        "t_end": (float, 30.0, "final time", TIME),
        "cfl": (float, 0.5, "CFL fraction", None),
        "report_dt": (float, None, "report cadence (default t_end / 8)", TIME),
        "csv": (str, None, "optional coarse-run energy-series CSV path", None),
    },
    "maxwell-currents": {
        "m": (float, 1.0, "black-hole mass", MASS),
        "a": (float, 0.5, "specific angular momentum", None),
        "field": (str, "uniform", "test field: coulomb or uniform", None),
        "strength": (float, 1.0, "field charge / amplitude",
                     (-math.sqrt(BIG), math.sqrt(BIG), "V_ab is quadratic in the field")),
        "n_points": (int, 5, "number of random exterior sample points", N_POINTS),
        "seed": (int, 2, "RNG seed", SEED),
        "step": (float, 1e-3, "finite-difference step", STEP),
    },
    "green": {
        "T": (float, 1.5, "time extent", None),
        "n_x": (int, 256, "spatial points on the circle", N_X),
        "cfl": (float, 0.85, "CFL number (must stay below 0.9)", COURANT),
        "potential": (float, 0.0, "amplitude of a smooth confining potential",
                      (-BIG / 2, BIG / 2, "the potential peaks at 2 potential")),
    },
    "goursat": {
        "extent": (float, 1.0, "null-rectangle edge length", None),
        "n": (int, 64, "null cells per edge (order check doubles this)", None),
        "data": (str, "trig", "test data: linear (exact) or trig", None),
    },
    "dirac": {
        "T": (float, 1.0, "time extent", None),
        "n_x": (int, 64, "spatial points (order check doubles this)", N_X),
        "cfl": (float, 0.8, "CFL number", COURANT),
        "twist_a0": (float, 0.3, "constant part of the connection a(t)", TWIST),
        "twist_a1": (float, 0.2, "oscillating part of the connection a(t)", TWIST),
    },
    "index": {
        "T": (float, 10.0, "cylinder time extent", None),
        "profile": (str, "ramp:0.3:1.3",
                    "'ramp:a0:a1' or a JSON file with sampled {t: [...], a: [...]}", None),
    },
}
# Keys of every subcommand, merged into each schema above.
COMMON = {
    "out": (str, None, "JSON report path (default: stdout)", None),
    "threads": (int, None, "parallelism cap (fallback: BHL_THREADS, then 1)", (1, math.inf, "a count")),
}
# The JSON types a config-file value may have, by caster (a bool is none of them).
FILE_TYPES = {str: ((str,), "a string"), int: ((int,), "an integer"),
              float: ((int, float), "a number")}


def _interval(lo, hi):
    """[lo, hi] as text: -inf, inf and a lower end at POSITIVE open, a real end in full."""
    end = lambda v: f"{v:g}" if isinstance(v, int) else repr(v)
    return (("(-inf" if lo == -math.inf else "(0" if lo == POSITIVE else f"[{end(lo)}")
            + ", " + ("inf)" if hi == math.inf else f"{end(hi)}]"))


def _read_json(path, what):
    """The JSON value in the file at path; what names the file in errors."""
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {what} file: {exc}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise DomainError(f"{what} file is not valid JSON: {exc}")


@functools.lru_cache(maxsize=1)
def _parser():
    """The argparse tree of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="kerrlab",
        description="Kerr hidden-symmetry and hyperbolic-theory numerics",
    )
    parser.add_argument("--version", action="version", version=f"kerrlab {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in SCHEMAS.items():
        sp = subs.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON config file (flags override its values)")
        for key, (caster, _default, help_text, bounds) in {**schema, **COMMON}.items():
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=caster, default=None,
                            help=help_text + (f", in {_interval(*bounds[:2])}" if bounds else ""))
    return parser


def parse_config(argv):
    """Resolve (subcommand, config dict) from argv plus an optional JSON file.

    Flags override file values; unknown config-file keys are rejected.
    """
    ns = _parser().parse_args(argv)
    schema = {**SCHEMAS[ns.subcommand], **COMMON}
    file_cfg = {} if ns.config is None else _read_json(ns.config, "config")
    if not isinstance(file_cfg, dict):
        raise DomainError("config file must contain a JSON object")
    unknown = sorted(set(file_cfg) - set(schema))
    if unknown:
        raise DomainError(f"unknown config keys: {', '.join(unknown)}")
    cfg = {}
    for key, (caster, default, _help, _bounds) in schema.items():  # flag, else file value, else default
        value, (types, kind) = file_cfg.get(key), FILE_TYPES[caster]
        if value is not None and type(value) not in types:
            raise DomainError(f"config value for {key} must be {kind}, not {json.dumps(value)}")
        flag = getattr(ns, key)
        cfg[key] = flag if flag is not None else default if value is None else value

    if cfg["threads"] is None:
        try:
            cfg["threads"] = int(os.environ.get("BHL_THREADS", "1"))
        except ValueError:
            raise DomainError("BHL_THREADS must be an integer")

    for key, (caster, _default, _help, bounds) in schema.items():
        value = cfg[key]
        if caster is str or value is None:
            continue
        if not -BIG <= value <= BIG:  # NaN, +-inf, and an integer beyond every double
            raise DomainError(f"{key} must be a finite double")
        if bounds and not bounds[0] <= value <= bounds[1]:
            raise DomainError(f"{key} = {value} lies outside {_interval(*bounds[:2])}: {bounds[2]}")
        cfg[key] = caster(value)  # a file's integer for a real key, checked first
    for key in ("out", "csv"):  # refused here, before any work, not after it
        path = cfg.get(key)
        if path and os.path.isdir(path):
            raise DomainError(f"{key} = {path!r} is a directory")
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise DomainError(f"{key} = {path!r} is in no existing directory")
    if cfg["out"] and cfg.get("csv") and os.path.realpath(cfg["out"]) == os.path.realpath(cfg["csv"]):
        raise DomainError(f"out and csv both name {cfg['out']!r}: the CSV would replace the report")
    return ns.subcommand, cfg


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results dict, failures list, csv or None)
# ---------------------------------------------------------------------------


def _order(coarse, fine):
    if fine <= 0.0:
        return float("inf")
    return math.log2(coarse / fine)


# The bound of each check, with its unit and (in parentheses) its acceptance
# criterion in tests/test_acceptance.py.  An order has no unit.
KERR_RESIDUAL_MAX = 1e-8       # kerr-check residuals, absolute, at the run's m (1)
KERR_FD_ORDER_MIN = 1.9        # kerr-check FD orders (1)
CONSERVED_DRIFT_MAX = 1e-9     # geodesic drifts over max(|initial value|, 1) (2)
GRID_DRIFT_MAX = 0.10          # morawetz ratio, fine grid against coarse, relative (4)
SCALING_DEVIATION_MAX = 1e-12  # morawetz ratio, data x3 against x1, relative (4)
DIV_V_RESIDUAL_MAX = 1e-5      # maxwell-currents max_b |nabla^a V_ab|, absolute (5)
DIV_V_ORDER_MIN = 1.5          # maxwell-currents orders of that residual (5)
LEADING_ENERGY_MIN = -1e-12    # maxwell-currents V's leading part on the unit normal, absolute (5)
GREEN_CLAUSE_MAX = 1e-8        # green clauses over max |f| (6, which asks 1e-10 on its grid)
GREEN_SUPPORT_MAX = 0.0        # green support beyond the causal collar, in cells (6)
LINEAR_EXACTNESS_MAX = 1e-12   # goursat --data linear: max |phi - (u + v)|, absolute (no criterion)
SECOND_ORDER = (1.8, 2.2)      # goursat --data trig and dirac orders (6)


def _check(failures, name, value, lo=None, hi=None):
    """Append the failure {"check": name, "value": value, "tolerance": ...} to
    failures unless value lies within its bounds: a one-sided bound or a range
    [lo, hi] fails every value not within it, NaN included."""
    if lo is not None and hi is not None:
        failed, tolerance = not lo <= value <= hi, [lo, hi]
    elif hi is not None:
        failed, tolerance = not value <= hi, hi
    else:
        failed, tolerance = not value >= lo, lo
    if failed:
        failures.append({"check": name, "value": value, "tolerance": tolerance})


def _run_kerr_check(cfg):
    from .kerr import KerrParams, _at, _conformal_ky, _killing, _tetrad, random_exterior_points

    params = KerrParams(m=cfg["m"], a=cfg["a"])
    rng = np.random.default_rng(cfg["seed"])
    points = random_exterior_points(params, cfg["n_points"], rng)
    r = np.array([p.r for p in points])
    th = np.array([p.theta for p in points])
    ginv, xi = _at(params, r, th, "ginv", "xi")
    xi_up = np.einsum("...ab,...b->...a", ginv, xi)
    res = {
        "ky": _killing(params, r, th, "Y"),
        "conformal_ky": _conformal_ky(params, r, th),
        "killing_tensor": _killing(params, r, th, "K"),
        "tetrad": _tetrad(params, r, th)[2],
        "xi": np.max(np.abs(xi_up - np.array([1, 0, 0, 0])), axis=-1),
    }

    h = cfg["fd_step"]
    orders = {}
    for name, form in (("ky_fd", "Y"), ("killing_tensor_fd", "K")):
        coarse, fine = (_killing(params, r[:3], th[:3], form, step) for step in (2 * h, h))
        orders[name] = [_order(c, f) for c, f in zip(coarse, fine)]

    failures = []
    maxima = {k: float(np.max(v)) for k, v in res.items()}
    for name, value in maxima.items():
        _check(failures, f"{name}_residual", value, hi=KERR_RESIDUAL_MAX)
    for name, vals in orders.items():
        _check(failures, f"{name}_order", float(np.min(vals)), lo=KERR_FD_ORDER_MIN)
    results = {"max_residuals": maxima, "observed_orders": orders,
               "n_points": len(points)}
    return results, failures, None


def _run_geodesic(cfg):
    from .geodesics import (CHART_GAP, _drift, conserved_quantities, conserved_series,
                            integrate_geodesic, momentum_series, normalize_velocity)
    from .kerr import BLPoint, KerrParams

    params = KerrParams(m=cfg["m"], a=cfg["a"])
    if cfg["causal"] not in ("timelike", "null"):
        raise DomainError("causal must be 'timelike' or 'null'")
    p0 = BLPoint(0.0, cfg["r0"], cfg["theta0"], cfg["phi0"], params)
    s0 = normalize_velocity(params, p0, (cfg["ur0"], cfg["utheta0"], cfg["uphi0"]),
                            causal_type=cfg["causal"])
    traj = integrate_geodesic(params, s0, cfg["t_max"], tol=cfg["tol"],
                              n_samples=cfg["n_samples"])

    conserved = conserved_series(params, traj.x, traj.u)  # the Boyer-Lindquist reading
    rows = np.column_stack([traj.tau, traj.x, traj.u, conserved]).tolist()
    names = ("e", "lz", "k", "norm")  # the columns of the series
    header = ["tau", "t", "r", "theta", "phi", "ut", "ur", "utheta", "uphi", *names]

    # the momentum form, over every sample, and the chart check: the
    # Boyer-Lindquist reading where it keeps its digits, which sees a wrong
    # g'^{ab} that H, conserved by any Hamiltonian flow, cannot
    drifts = _drift(momentum_series(params, traj))
    far = traj.x[:, 1] - params.r_plus >= CHART_GAP * params.m
    chart = {"samples": int(np.count_nonzero(far)), "drifts": None}
    failures = []
    for name, d in zip(names, drifts):
        _check(failures, f"{name}_drift", float(d), hi=CONSERVED_DRIFT_MAX)
    if far.any():
        chart["drifts"] = dict(zip(names, map(float, _drift(conserved[far]))))
        for name, d in chart["drifts"].items():
            _check(failures, f"chart_{name}_drift", d, hi=CONSERVED_DRIFT_MAX)
    else:
        chart["reason"] = f"no sample lies at r - r_plus >= {CHART_GAP:g} m: not checked"
    results = {"drifts": dict(zip(names, map(float, drifts))),
               "chart_check": chart,
               "plunged": traj.plunged,
               "initial_conserved": conserved_quantities(params, s0).__dict__,
               "samples": len(rows)}
    return results, failures, (header, rows)


def _wave_setup(cfg, n_r, n_theta):
    from .kerr import KerrParams
    from .waves import ModeField2p1, WaveGrid, initial_data

    params = KerrParams(m=cfg["m"], a=cfg["a"])
    grid = WaveGrid(params=params, m_phi=cfg["m_phi"], n_r=n_r, n_theta=n_theta,
                    rstar_min=cfg["rstar_min"], rstar_max=cfg["rstar_max"])
    psi, psi_t = initial_data(grid, family=cfg["family"], center=cfg["center"],
                              width=cfg["width"])
    if not (psi.any() or psi_t.any()):  # every energy and ratio would read 0
        raise DomainError(f"the initial data vanish on the grid: a pulse of width "
                          f"{cfg['width']:g} at r* = {cfg['center']:g} is zero on "
                          f"[{cfg['rstar_min']:g}, {cfg['rstar_max']:g}]")
    return ModeField2p1(grid=grid, psi=psi, psi_t=psi_t)


def _energy_rows(reports, dt):
    rows = []
    for rep in reports:
        rows.append((int(round(rep.time / dt)), rep.time, rep.e_model3,
                     rep.bulk_increment, rep.bulk_cumulative, rep.ratio))
    return ["step", "time", "e_model3", "bulk_increment", "bulk_cumulative",
            "ratio"], rows


def _run_wave_evolve(cfg):
    from .waves import evolve

    field = _wave_setup(cfg, cfg["n_r"], cfg["n_theta"])
    final, reports = evolve(field, t_end=cfg["t_end"], cfl=cfg["cfl"],
                            report_dt=cfg["report_dt"])
    dt = final.history[1]
    header, rows = _energy_rows(reports, dt)
    results = {
        "dt": dt,
        "final_time": final.time,
        "e_model3_initial": reports[0].e_model3,
        "e_model3_final": reports[-1].e_model3,
        "bulk_cumulative_final": reports[-1].bulk_cumulative,
        "ratio_final": reports[-1].ratio,
        "series": [list(r) for r in rows],
    }
    return results, [], (header, rows)


def _send_outcome(fn, conn):
    """Send (True, fn()) or (False, the exception fn raised) down conn."""
    try:
        outcome = (True, fn())
    except Exception as exc:  # re-raised in the parent, which reports it
        outcome = (False, exc)
    conn.send(outcome)
    conn.close()


@contextlib.contextmanager
def _forked(fn, fork):
    """Start fn in one forked child process, if fork is true and the platform
    can fork now; yield a function that returns fn's result, or raises the
    exception fn raised.  Without a child, that function calls fn itself.

    Fork, not spawn: the child starts from the parent's imports and memory,
    at no start-up cost.  kerrlab starts no threads of its own.  The child
    is joined, or killed if the parent leaves early.
    """
    import multiprocessing

    if not fork or "fork" not in multiprocessing.get_all_start_methods():
        yield fn
        return
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_outcome, args=(fn, send))
    sys.stdout.flush()  # so that no buffered output is written twice
    sys.stderr.flush()
    try:
        child.start()
    except OSError:  # e.g. no process to spare: run serially
        receive.close()
        send.close()
        yield fn
        return
    send.close()

    def result():
        try:
            ok, value = receive.recv()
        except EOFError:
            child.join()
            raise StabilityError(f"the forked run ended without a result "
                                 f"(exit code {child.exitcode})")
        child.join()
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        receive.close()
        if child.is_alive():
            child.kill()
        child.join()


def _run_morawetz(cfg):
    from .waves import MAX_GRID_POINTS, ModeField2p1, evolve

    if 4 * cfg["n_r"] * cfg["n_theta"] > MAX_GRID_POINTS:  # refused here, not in the child
        raise DomainError(f"the fine {2 * cfg['n_r']:.3g} x {2 * cfg['n_theta']:.3g} grid "
                          f"exceeds {MAX_GRID_POINTS} points")

    def run(field):
        final, reports = evolve(field, t_end=cfg["t_end"], cfl=cfg["cfl"],
                                report_dt=cfg["report_dt"])
        return reports, final.history[1]

    def fine_ratio():
        return run(_wave_setup(cfg, 2 * cfg["n_r"], 2 * cfg["n_theta"]))[0][-1].ratio

    # under --threads >= 2 the fine run, the longest of the three, runs in a
    # child forked before the coarse grid exists, alongside the other two
    with _forked(fine_ratio, cfg["threads"] >= 2) as fine:
        coarse = _wave_setup(cfg, cfg["n_r"], cfg["n_theta"])
        reports, dt = run(coarse)
        series = _energy_rows(reports, dt)
        ratios = {"coarse": reports[-1].ratio}
        # data-scaling invariance: the ratio is a quotient of quadratic
        # functionals, so rescaling the data must leave it unchanged exactly;
        # the scaled run reuses the coarse grid and its compiled operator
        scaled = ModeField2p1(grid=coarse.grid, psi=3.0 * coarse.psi, psi_t=3.0 * coarse.psi_t)
        scale_dev = abs(run(scaled)[0][-1].ratio - ratios["coarse"]) / max(ratios["coarse"], 1e-300)
        del coarse, scaled  # so that the fine run's peak memory holds no coarse grid
        ratios["fine"] = fine()

    drift = abs(ratios["fine"] - ratios["coarse"]) / max(abs(ratios["coarse"]), 1e-300)
    failures = []
    _check(failures, "ratio_grid_drift", drift, hi=GRID_DRIFT_MAX)
    _check(failures, "ratio_scaling_invariance", scale_dev, hi=SCALING_DEVIATION_MAX)
    results = {"ratio_coarse": ratios["coarse"], "ratio_fine": ratios["fine"],
               "ratio_grid_drift": drift, "ratio_scaling_deviation": scale_dev}
    return results, failures, series


def _run_maxwell_currents(cfg):
    from .kerr import KerrParams, _at, _principal_tetrad, random_exterior_points
    from .maxwell import FIELDS, _currents, _divergence, _dominant_energy, _np_scalars

    params = KerrParams(m=cfg["m"], a=cfg["a"])
    if cfg["field"] not in FIELDS:
        raise DomainError("field must be 'coulomb' or 'uniform'")
    if cfg["strength"] == 0:  # every Z, eta, V and residual would read 0
        raise DomainError("strength must be non-zero: a vanishing field has no currents to check")
    F_field = lambda pts: cfg["strength"] * FIELDS[cfg["field"]](params, pts)

    rng = np.random.default_rng(cfg["seed"])
    points = random_exterior_points(params, cfg["n_points"], rng)
    centres = np.array([p.coords for p in points])
    step = cfg["step"]
    blocks = []
    for block in np.split(centres, range(MAXWELL_BLOCK_CENTRES, len(centres), MAXWELL_BLOCK_CENTRES)):
        Z, eta, _, div, F = _currents(params, F_field, block, step)
        blocks.append((np.max(np.abs(Z), axis=(-2, -1)), eta, div,
                       _currents(params, F_field, block, 2 * step)[3],
                       _divergence(params, F_field, block, step), F))
    Z_max, eta, div, div2, maxwell_res, F = map(np.concatenate, zip(*blocks))

    r, th = centres[:, 1], centres[:, 2]
    phis = _np_scalars(F, _principal_tetrad(params, r, th), r, th, params.a)
    # the future unit normal n^a = -g^{a0} / sqrt(-g^{00}) to t = const for the
    # leading-part check: timelike outside the horizon, in the ergoregion too
    g, ginv = _at(params, r, th, "g", "ginv")
    v = -ginv[:, :, 0] / np.sqrt(-ginv[:, 0, 0])[:, None]
    energy = _dominant_energy(eta, g, ginv, v, v)

    per_point, failures = [], []
    for i, p in enumerate(points):  # the report: one entry and three checks per point
        order = _order(div2[i], div[i])
        per_point.append({
            "point": list(map(float, p.coords)),
            "maxwell_residual": maxwell_res[i],
            "np_scalars": dict(zip(("phi0", "phi1", "phi2", "upsilon"), (x[i] for x in phis))),
            "Z_max": Z_max[i],
            "eta": eta[i],
            "div_V_residual": div[i],
            "div_V_order": order,
            "leading_energy_density": energy[i],
        })
        _check(failures, f"div_V_residual[{i}]", div[i], hi=DIV_V_RESIDUAL_MAX)
        _check(failures, f"div_V_order[{i}]", order, lo=DIV_V_ORDER_MIN)
        _check(failures, f"leading_energy_density[{i}]", energy[i], lo=LEADING_ENERGY_MIN)
    results = {
        "per_point": per_point,
        "max_div_V_residual": float(max(pp["div_V_residual"] for pp in per_point)),
        "observed_orders": {"div_V": [pp["div_V_order"] for pp in per_point]},
    }
    return results, failures, None


def _bump(s):
    """exp(1 - 1/(1 - s^2)) for 0 <= s < 1, else 0: the C^infinity bump of s = distance / radius."""
    out = np.zeros_like(s)
    inside = s < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def _cfl_grid(T, n_x, cfl):
    """The 1+1 lattice with n_x points on the circle and the fewest time
    steps whose CFL number is at most cfl."""
    from .hyperbolic1d import Grid1p1

    h_x = 2.0 * math.pi / n_x
    require_normal("the time step's bound cfl 2 pi / n_x", cfl * h_x)
    if not math.isfinite(T / (cfl * h_x)):
        raise DomainError(f"the step count T / (cfl 2 pi / n_x) overflows at T = {T:g}")
    return Grid1p1(T=T, n_x=n_x, n_t=int(math.ceil(T / (cfl * h_x))))


def _run_green(cfg):
    from .hyperbolic1d import _green_clause_residuals, sample

    potential = cfg["potential"]
    grid = _cfl_grid(cfg["T"], cfg["n_x"], cfg["cfl"])

    def source(t, x):  # a bump in time about T / 2 times one on the circle about pi
        t_c, t_r = 0.5 * cfg["T"], 0.18 * cfg["T"]
        arc = np.abs(np.angle(np.exp(1j * (x - math.pi))))  # distance from pi on the circle
        return _bump(np.abs(t - t_c) / t_r) * _bump(arc / 0.5)

    f = sample(grid, source)
    # without a potential and, unless it is 0, with one: all in one march
    potentials = [None]
    if potential != 0.0:
        potentials.append(lambda x: potential * (1.0 + np.cos(x)))
    residuals, *with_potential = _green_clause_residuals(grid, f, potentials)

    failures = []
    for name, value in residuals.items():
        _check(failures, name, value,
               hi=GREEN_SUPPORT_MAX if name.startswith("support_") else GREEN_CLAUSE_MAX)
    results = {"clause_residuals": residuals, "n_t": grid.n_t,
               "clause_residuals_with_potential": with_potential[0] if with_potential else None}
    return results, failures, None


def _run_goursat(cfg):
    from .hyperbolic1d import _goursat_error, _goursat_rows

    failures = []
    if cfg["data"] == "linear":
        err = _goursat_error(*_goursat_rows(lambda u: u, lambda v: v, cfg["extent"], cfg["n"]),
                             lambda u, v: u + v)
        _check(failures, "linear_exactness", err, hi=LINEAR_EXACTNESS_MAX)
        results = {"max_error": err, "observed_orders": {}}
    elif cfg["data"] == "trig":
        # phi = sin(u) sin(v): d_u d_v phi = cos(u) cos(v), so the wave
        # source is f = 4 cos(t - x) cos(t + x); vanishing null-ray data
        f = lambda t, x: 4.0 * np.cos(t - x) * np.cos(t + x)
        errs = []
        # phi block by block: no array of lattice size, at n or at 2 n
        for n in (cfg["n"], 2 * cfg["n"]):
            errs.append(_goursat_error(*_goursat_rows(lambda u: 0.0, lambda v: 0.0, cfg["extent"], n, f=f),
                                       lambda u, v: np.sin(u) * np.sin(v)))
        order = _order(errs[0], errs[1])
        _check(failures, "goursat_order", order, *SECOND_ORDER)
        results = {"errors": errs, "observed_orders": {"goursat": order}}
    else:
        raise DomainError("data must be 'linear' or 'trig'")
    return results, failures, None


def _run_dirac(cfg):
    from .hyperbolic1d import DiracData1p1, Grid1p1, dirac_solve_by_squaring, dirac_solve_direct

    a0, a1 = cfg["twist_a0"], cfg["twist_a1"]
    twist = (lambda t: a0 + a1 * math.sin(t)) if (a0 or a1) else None
    # the fine level halves both steps, so that _order's log2 is the order
    coarse = _cfl_grid(cfg["T"], cfg["n_x"], cfg["cfl"])
    errs = []
    for grid in (coarse, Grid1p1(T=coarse.T, n_x=2 * coarse.n_x, n_t=2 * coarse.n_t)):
        u0 = np.array([np.sin(grid.x), np.cos(2.0 * grid.x)], dtype=complex)
        source = lambda t, x: np.array([np.cos(x + t), 0.2 * np.sin(2 * x - t)])
        data = DiracData1p1(u0=u0, f=source, connection=twist)
        u_sq = dirac_solve_by_squaring(data, grid)
        u_dir = dirac_solve_direct(data, grid)
        errs.append(float(np.max(np.abs(u_sq - u_dir))))
    order = _order(errs[0], errs[1])
    failures = []
    _check(failures, "dirac_squaring_order", order, *SECOND_ORDER)
    results = {"errors": errs, "observed_orders": {"dirac_squaring": order}}
    return results, failures, None


def _load_profile(cfg):
    from .index2d import ConnectionProfile, ramp_profile

    spec = cfg["profile"]
    T = cfg["T"]
    if spec.startswith("ramp:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise DomainError("ramp profile must be 'ramp:a0:a1'")
        try:
            a0, a1 = float(parts[1]), float(parts[2])
        except ValueError:
            raise DomainError("ramp endpoints must be numbers")
        if not math.isfinite(a1 - a0):
            raise DomainError(f"profile = {spec}: ramp endpoints must be finite, and so must a1 - a0")
        return ramp_profile(a0, a1, T)
    data = _read_json(spec, "profile")
    if not isinstance(data, dict) or "t" not in data or "a" not in data:
        raise DomainError("profile file must contain 't' and 'a' arrays")
    try:
        ts, avals = (np.asarray(data[key], dtype=float) for key in ("t", "a"))
    except (ValueError, TypeError):
        raise DomainError("profile samples must be numbers")
    if ts.shape != avals.shape or ts.ndim != 1 or ts.size < 2:
        raise DomainError("profile arrays must be equal-length 1D with >= 2 samples")
    if not np.all(np.isfinite([ts, avals])):
        raise DomainError("profile samples must be finite")
    if not np.all(np.diff(ts) > 0):
        raise DomainError("profile times must be strictly increasing")
    return ConnectionProfile(a=lambda t: np.interp(t, ts, avals), T=T)


def _run_index(cfg):
    from .index2d import IndexTheoremError, charge_report

    profile = _load_profile(cfg)
    failures = []
    try:
        report = charge_report(profile)
    except IndexTheoremError as exc:
        # IndexReport construction rejects any violated index-theorem
        # invariant; surface it as a numeric failure, not an input error
        return {"report": None}, [{"check": "index_theorem", "value": str(exc),
                                   "tolerance": 0}], None
    return {"report": report.as_dict()}, failures, None


HANDLERS = {
    "kerr-check": _run_kerr_check,
    "geodesic": _run_geodesic,
    "wave-evolve": _run_wave_evolve,
    "morawetz": _run_morawetz,
    "maxwell-currents": _run_maxwell_currents,
    "green": _run_green,
    "goursat": _run_goursat,
    "dirac": _run_dirac,
    "index": _run_index,
}


def run(subcommand, cfg):
    """Execute a resolved config; returns the process exit code."""
    results, failures, csv_payload = HANDLERS[subcommand](cfg)
    report = {
        "version": __version__,
        "subcommand": subcommand,
        "config": {k: v for k, v in cfg.items()},
        "results": _finite(results),
        "failures": _finite(failures),
        "passed": not failures,
    }
    text = _json_text(report)
    if cfg.get("out"):
        _write_atomic(cfg["out"], text)
    else:
        sys.stdout.write(text)
    if csv_payload is not None and cfg.get("csv"):
        header, rows = csv_payload
        _write_atomic(cfg["csv"], _csv_text(header, rows))
    return 0 if not failures else 1


def main(argv=None):
    try:
        subcommand, cfg = parse_config(sys.argv[1:] if argv is None else argv)
        return run(subcommand, cfg)
    except (DomainError, GuardBandError) as exc:
        print(f"kerrlab: input error: {exc}", file=sys.stderr)
        return 2
    except (StabilityError, CalibrationError) as exc:
        print(f"kerrlab: invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
