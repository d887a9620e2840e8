"""One benchmark process: set up, then run a fixed number of whole rounds of a workload.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/. Protocol on stdout: one line 'READY' once set-up is done
(run.py times set-up up to that line), then, unless --setup-only, one line
'RESULT <json>' at the end: counts, the median round time, every round's
and every operation's time, the set-up phases and, traced, the per-layer
metrics. Nothing else goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback


def _say(line):
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def setup(workload_name):
    """Import kerrlab from the checkout and pay the workload's lazy set-up."""
    t0 = time.perf_counter()
    import kerrlab.cli  # noqa: F401  (imports every kerrlab module, numpy and scipy)
    import_s = time.perf_counter() - t0
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(kerrlab.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"kerrlab was imported from {kerrlab.cli.__file__}, not from {src}")

    import workloads

    forms_s = 0.0
    if workloads.WORKLOADS[workload_name].needs_forms:
        from kerrlab.kerr import _forms
        t1 = time.perf_counter()
        _forms()  # sympy derivation + lambdify, paid by every geometry CLI call
        forms_s = time.perf_counter() - t1
    return {"import_s": import_s, "forms_s": forms_s}


def execute(op):
    """Run one operation; returns (seconds, failed, unexpected)."""
    import checks

    t0 = time.perf_counter()
    try:
        value = op.call()
    except Exception:  # an operation that raises has failed; the run goes on
        print(f"perfbench: {op.name} raised", file=sys.stderr)
        traceback.print_exc()
        return time.perf_counter() - t0, True, True
    seconds = time.perf_counter() - t0
    try:
        op.check(value)
        return seconds, False, False
    except checks.CheckError as exc:
        try:
            if op.known_failure is not None and op.known_failure(value):
                return seconds, True, False
        except Exception:
            traceback.print_exc()
        print(f"perfbench: {op.name} failed a check: {exc}", file=sys.stderr)
    except Exception:  # e.g. a check that needs the result of an earlier, failed call
        print(f"perfbench: checking {op.name} raised", file=sys.stderr)
        traceback.print_exc()
    return seconds, True, True


def step_timing(tracer, ops):
    """Time evolve(diagnostics=False) once on every grid of a waves round,
    counting steps in round -1 of the tracer. Returns (seconds, steps,
    step-points)."""
    import workloads
    from kerrlab import KerrParams, ModeField2p1, WaveGrid, evolve, initial_data

    seconds, steps, points = 0.0, 0, 0
    for cfg, n_r, n_theta in workloads.wave_grids(ops):
        grid = WaveGrid(params=KerrParams(cfg["m"], cfg["a"]), m_phi=cfg["m_phi"], n_r=n_r,
                        n_theta=n_theta, rstar_min=cfg["rstar_min"], rstar_max=cfg["rstar_max"])
        psi, psi_t = initial_data(grid, family=cfg["family"], center=cfg["center"], width=cfg["width"])
        field = ModeField2p1(grid=grid, psi=psi, psi_t=psi_t)
        before = tracer.counters.get(("waves.step", -1), [0, 0.0])[0]
        t0 = time.perf_counter()
        evolve(field, t_end=cfg["t_end"], cfl=cfg["cfl"], diagnostics=False)
        seconds += time.perf_counter() - t0
        n = tracer.counters[("waves.step", -1)][0] - before
        steps += n
        points += n * n_r * n_theta
    return seconds, steps, points


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    phases = setup(args.workload)
    _say("READY")
    if args.setup_only:
        return 0

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    round_walls, op_times, attempted, failed, unexpected = [], [], 0, 0, 0
    first_ops = None
    n_rounds = workload.rounds(args.seconds)
    for k in range(n_rounds):
        if tracer is not None:
            tracer.round = k
        ops = workload.round_ops(args.seed, k, args.workdir)
        first_ops = first_ops or ops
        times = []
        for op in ops:
            seconds, op_failed, op_unexpected = execute(op)
            times.append(seconds)
            attempted += 1
            failed += op_failed
            unexpected += op_unexpected
        round_walls.append(sum(times))
        op_times.append(times)

    result = {
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "rounds": n_rounds,
        "wall_s": statistics.median(round_walls),
        "round_walls": round_walls,
        "op_times": op_times,
        "setup": phases,
    }
    if tracer is not None:
        timing = (0.0, 0, 0)
        if args.workload == "waves":
            tracer.round = -1
            timing = step_timing(tracer, first_ops)
        result["layers"] = tracing.layer_metrics(tracer, phases, timing)
        if args.trace_file:
            tracer.write(args.trace_file)
    _say("RESULT " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
