"""The four workloads: each is a fixed sequence of operations per round.

An operation is one `kerrlab.cli.run(subcommand, cfg)` call or one direct
public-function call. `round_ops(seed, k, workdir)` builds round k of a
workload; its inputs depend only on (seed, k), so a run repeats exactly for
a given seed. Spins that feed the calibration caches of `kerr` and
`maxwell` change from round to round, so no round reuses a warm cache that
a separate CLI invocation would not have.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks

THREADS = 2  # passed to every config; kerrlab records it but does not use it yet


@dataclass
class Op:
    name: str
    call: Callable[[], object]          # the timed call
    check: Callable[[object], None]     # raises checks.CheckError
    known_failure: Optional[Callable[[object], bool]] = None
    cfg: Optional[dict] = None          # resolved CLI config, for CLI operations


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def cli_op(sub, flags, workdir, tag, check, with_csv=False, known_failure=None):
    """An operation that runs one CLI subcommand, with the config the command
    line would build, and checks its report (and CSV)."""
    from kerrlab import cli

    argv = [sub, "--out", os.path.join(workdir, f"{tag}.json"), "--threads", str(THREADS)]
    for key, value in flags.items():
        text = repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)
        argv.append(f"--{key.replace('_', '-')}={text}")  # '=' keeps '-1e-05' a value
    if with_csv:
        argv += ["--csv", os.path.join(workdir, f"{tag}.csv")]
    _, cfg = cli.parse_config(argv)

    def verify(rc):
        report = _load(cfg["out"])
        checks.require(rc == 0, f"{sub} exited {rc}: {report['failures']}")
        if with_csv:
            header, rows = checks.read_csv(cfg["csv"])
            check(report, header, rows)
        else:
            check(report)

    def is_known(rc):
        return rc == 1 and known_failure(_load(cfg["out"]))

    return Op(sub, lambda: cli.run(sub, cfg), verify, is_known if known_failure else None, cfg)


def _away_from_integers(rng, lo, hi, gap=0.05):
    while True:
        x = rng.uniform(lo, hi)
        if abs(x - round(x)) >= gap:
            return float(x)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

GEOMETRY_MAX_ROUNDS = 24
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def coulomb_spin(k):
    """Spin of round k's Coulomb call: fixed by k alone, never by the seed,
    because that call fails on every input (see CHANGES.md)."""
    return round(0.15 + 0.7 * ((k + 1) * _GOLDEN % 1.0), 6)


def geometry_round(seed, k, workdir):
    from kerrlab import BLPoint, KerrParams, constraint_residual, kerr_metric, schwarzschild_slice

    rng = np.random.default_rng([seed, k, 1])
    ops = []
    for i, base in enumerate((0.0, 0.5, 0.9)):
        a = round(base + 0.02 * rng.random(), 6)
        ops.append(cli_op("kerr-check", {"a": a, "n_points": 50, "seed": int(rng.integers(1 << 30))},
                          workdir, f"kerr-check-{i}", lambda rep: checks.check_kerr_check(rep, 50)))
        params = KerrParams(1.0, a)
        for j in range(2):
            p = BLPoint(0.0, rng.uniform(params.r_plus + 0.3, 12.0), rng.uniform(0.3, math.pi - 0.3),
                        rng.uniform(0.0, 2 * math.pi), params)

            def metric_check(md, a=a, p=p):
                checks.check_metric_sample(1.0, a, p.coords, md.g.components.real,
                                           md.g_inv.components.real)

            ops.append(Op("kerr_metric", lambda params=params, p=p: kerr_metric(params, p), metric_check))

    for i in range(2):
        a = round(rng.uniform(0.05 + 0.45 * i, 0.45 + 0.45 * i), 6)
        ops.append(cli_op("maxwell-currents",
                          {"field": "uniform", "a": a, "n_points": 1, "seed": int(rng.integers(1 << 30))},
                          workdir, f"maxwell-uniform-{i}", lambda rep: checks.check_maxwell_uniform(rep, 1)))
    ops.append(cli_op("maxwell-currents", {"field": "coulomb", "a": coulomb_spin(k), "n_points": 1, "seed": 2},
                      workdir, "maxwell-coulomb", lambda rep: checks.check_maxwell_coulomb(rep, 1),
                      known_failure=checks.coulomb_failure_is_known))

    pts = [np.array([rng.uniform(4.0, 8.0), rng.uniform(0.6, math.pi - 0.6), rng.uniform(0.0, 2 * math.pi)])
           for _ in range(2)]
    data = schwarzschild_slice(1.0)
    coarse = {}

    def coarse_call():
        coarse["res"] = constraint_residual(data, pts, step=2e-2)
        return coarse["res"]

    ops.append(Op("constraint_residual", coarse_call, lambda res: None))
    ops.append(Op("constraint_residual", lambda: constraint_residual(data, pts, step=1e-2),
                  lambda res: checks.check_constraint_pair(*coarse["res"], *res)))
    return ops


# ---------------------------------------------------------------------------
# geodesic
# ---------------------------------------------------------------------------

GEODESIC_ORBITS = 4
GEODESIC_T_MAX = 200.0


def geodesic_round(seed, k, workdir):
    """Bound, near-circular orbits in the style of acceptance criterion 2,
    stratified in spin and radius so every round carries a similar load.
    u^phi is drawn around the Schwarzschild circular value
    r^-3/2 / sqrt(1 - 3m/r), corrected for the latitude."""
    rng = np.random.default_rng([seed, k, 2])
    spin_slots = rng.permutation(GEODESIC_ORBITS)
    ops = []
    for j in range(GEODESIC_ORBITS):
        a = round(0.9 * (spin_slots[j] + rng.random()) / GEODESIC_ORBITS, 6)
        r0 = 8.0 + 4.0 * (j + rng.random()) / GEODESIC_ORBITS
        th0 = rng.uniform(0.7, 2.4)
        circular = r0 ** -1.5 / math.sqrt(1.0 - 3.0 / r0)
        flags = {
            "a": a, "r0": r0, "theta0": th0,
            "ur0": rng.uniform(-0.02, 0.02), "utheta0": rng.uniform(-0.02, 0.02),
            "uphi0": rng.uniform(0.97, 1.03) * circular / math.sin(th0) ** 2,
            "t_max": GEODESIC_T_MAX, "tol": 3e-14, "n_samples": 200,
        }
        ops.append(cli_op("geodesic", flags, workdir, f"geodesic-{j}",
                          lambda rep, h, rows, a=a: checks.check_geodesic(rep, h, rows, 1.0, a, GEODESIC_T_MAX),
                          with_csv=True))
    return ops


# ---------------------------------------------------------------------------
# waves
# ---------------------------------------------------------------------------

FAMILIES = ("gaussian-static", "gaussian-ingoing", "gaussian-wide")
# criterion-4 spins and modes; grids, t_end and edges are the CLI defaults
MORAWETZ_CASES = ((0.0, 0), (0.0, 1), (0.1, 0), (0.1, 1))


def waves_round(seed, k, workdir):
    rng = np.random.default_rng([seed, k, 3])
    ops = []
    for i, (a, m_phi) in enumerate(MORAWETZ_CASES):
        flags = {"a": a, "m_phi": m_phi, "family": FAMILIES[rng.integers(3)],
                 "center": rng.uniform(5.0, 15.0), "width": rng.uniform(3.0, 5.0)}
        ops.append(cli_op("morawetz", flags, workdir, f"morawetz-{i}", checks.check_morawetz, with_csv=True))
    flags = {"a": 0.9, "m_phi": 1, "family": FAMILIES[rng.integers(3)],
             "center": rng.uniform(-5.0, 5.0), "width": rng.uniform(2.5, 4.0)}
    ops.append(cli_op("wave-evolve", flags, workdir, "wave-evolve", checks.check_wave_evolve, with_csv=True))
    return ops


def wave_grids(ops):
    """(config, n_r, n_theta) of every distinct grid a round of `waves`
    evolves on: morawetz runs its coarse grid and the doubled one."""
    out = []
    for op in ops:
        for f in ((1, 2) if op.name == "morawetz" else (1,)):
            out.append((op.cfg, op.cfg["n_r"] * f, op.cfg["n_theta"] * f))
    return out


# ---------------------------------------------------------------------------
# solvers-1p1
# ---------------------------------------------------------------------------

GOURSAT_N = 256
INDEX_PROFILES = 6


def solvers_round(seed, k, workdir):
    from kerrlab import goursat_solve

    rng = np.random.default_rng([seed, k, 4])
    ops = [cli_op("green", {"potential": rng.uniform(0.2, 1.0)}, workdir, "green", checks.check_green)]

    extent = rng.uniform(0.8, 1.2)
    f = lambda t, x: 4.0 * math.cos(t - x) * math.cos(t + x)
    direct = {}

    def direct_call():
        direct["phi"] = goursat_solve(lambda u: 0.0, lambda v: 0.0, extent, GOURSAT_N, f=f).phi
        return direct["phi"]

    ops.append(Op("goursat_solve", direct_call, lambda phi: None))
    ops.append(cli_op("goursat", {"data": "trig", "n": GOURSAT_N, "extent": extent}, workdir, "goursat",
                      lambda rep: checks.check_goursat(
                          rep, checks.goursat_trig_error(direct["phi"], extent, GOURSAT_N))))

    ops.append(cli_op("dirac", {"twist_a0": rng.uniform(0.1, 0.5), "twist_a1": rng.uniform(0.05, 0.3)},
                      workdir, "dirac", lambda rep: checks.check_order_pair(rep, "dirac")))
    for i in range(INDEX_PROFILES):
        a0 = _away_from_integers(rng, -2.0, 2.0)
        a1 = _away_from_integers(rng, a0 - 3.0, a0 + 3.0)
        ops.append(cli_op("index", {"profile": f"ramp:{a0!r}:{a1!r}"}, workdir, f"index-{i}",
                          lambda rep, a0=a0, a1=a1: checks.check_index(rep, a0, a1)))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    round_ops: Callable
    needs_forms: bool        # pays kerr._forms (sympy derivation + lambdify) at set-up
    round_s: float           # nominal round time, at or above the reference machine's (README)
    max_rounds: int = 1000

    def rounds(self, seconds):
        """Rounds in a run of `seconds`: fixed by the arguments alone, never by
        how fast the host runs, so `attempted` and `failed` repeat exactly."""
        return max(1, min(self.max_rounds, round(seconds / self.round_s)))


WORKLOADS = {
    "waves": Workload("waves", waves_round, needs_forms=False, round_s=4.0),
    "geometry": Workload("geometry", geometry_round, needs_forms=True, round_s=6.0,
                         max_rounds=GEOMETRY_MAX_ROUNDS),
    "geodesic": Workload("geodesic", geodesic_round, needs_forms=True, round_s=1.4),
    "solvers-1p1": Workload("solvers-1p1", solvers_round, needs_forms=False, round_s=1.25),
}
