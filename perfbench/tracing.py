"""Spans around kerrlab's public functions, recorded from outside the program.

`Tracer.install()` replaces every public function of every kerrlab module
(in every module namespace that binds it) with a wrapper that records a
span: name, start, end, parent span and the round it ran in. Two hot inner
calls are counted instead of spanned, because a span each would cost more
than the call: the geodesic right-hand side (through the `solve_ivp` that
`kerrlab.geodesics` imports) and the leapfrog step `kerrlab.waves._step`.
Spans stay in memory and are written out as JSON lines when the run ends.

`layer_metrics()` turns spans and counters into the per-layer metrics named
in LAYER_METRICS. Self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (name, unit) of every per-layer metric, in the order they are printed
LAYER_METRICS = (
    ("cli.import_s", "s"),
    ("cli.report_ms", "ms"),
    ("kerr.forms_build_s", "s"),
    ("kerr.metric_us", "us"),
    ("kerr.residuals_us_per_point", "us"),
    ("kerr.fd_residual_us", "us"),
    ("kerr.calls", "count"),
    ("tensors.cov_deriv_fd_us", "us"),
    ("tensors.cov_deriv_fd_calls", "count"),
    ("maxwell.V_tensor_ms", "ms"),
    ("maxwell.divergence_residual_us", "us"),
    ("maxwell.field_first_call_ms", "ms"),
    ("geodesics.integrate_ms", "ms"),
    ("geodesics.rhs_evals", "count"),
    ("geodesics.rhs_us", "us"),
    ("geodesics.drift_ms", "ms"),
    ("waves.step_ns_per_point", "ns"),
    ("waves.steps", "count"),
    ("waves.diagnostics_ms_per_report", "ms"),
    ("waves.reports", "count"),
    ("waves.grid_ms", "ms"),
    ("hyperbolic1d.goursat_solve_ms", "ms"),
    ("hyperbolic1d.green_clause_residuals_ms", "ms"),
    ("hyperbolic1d.dirac_solve_direct_ms", "ms"),
    ("hyperbolic1d.dirac_solve_by_squaring_ms", "ms"),
    ("index2d.charge_report_ms", "ms"),
    ("slices.constraint_residual_ms", "ms"),
)

LAYERS = ("kerr", "tensors", "maxwell", "geodesics", "waves", "hyperbolic1d", "index2d", "slices")
KERR_RESIDUALS = ("killing_yano_residual", "conformal_ky_residual", "killing_tensor_residual",
                  "tetrad_reconstruction_residual")
# field constructors whose first call per KerrParams runs a Maxwell calibration
FIRST_CALL_FIELDS = ("uniform_field", "coulomb_field")

_NAME, _START, _END, _PARENT, _CHILD, _ROUND = range(6)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, child time, round]
        self.stack = []
        self.round = 0
        self.counters = {}       # (name, round) -> [count, seconds]
        self.seen_fields = set()

    # -- recording ---------------------------------------------------------

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, self.round]
            stack.append(len(spans))
            spans.append(rec)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec[_START], rec[_END] = t0, t1
                if rec[_PARENT] >= 0:
                    spans[rec[_PARENT]][_CHILD] += t1 - t0

        return wrapper

    def counted(self, name, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            c = self.counters.setdefault((name, self.round), [0, 0.0])
            c[0] += 1
            c[1] += clock() - t0
            return out

        return wrapper

    def _first_call(self, qualname, fn):
        """Span named '<qualname>.first' on the first call per KerrParams."""
        plain, first = self.span(qualname, fn), self.span(qualname + ".first", fn)

        def wrapper(params, *args, **kwargs):
            key = (qualname, params)
            if key in self.seen_fields:
                return plain(params, *args, **kwargs)
            self.seen_fields.add(key)
            return first(params, *args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        import kerrlab
        from kerrlab import cli, geodesics, waves

        modules = [sys.modules[f"kerrlab.{name}"] for name in LAYERS] + [kerrlab, cli]
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"kerrlab.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                replaced[obj] = (self._first_call(qual, obj) if name in FIRST_CALL_FIELDS
                                 else self.span(qual, obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])

        waves.WaveGrid.__init__ = self.span("waves.WaveGrid", waves.WaveGrid.__init__)
        waves._step = self.counted("waves.step", waves._step)
        solve_ivp = geodesics.solve_ivp

        def traced_solve_ivp(fun, *args, **kwargs):
            return solve_ivp(self.counted("geodesics.rhs", fun), *args, **kwargs)

        geodesics.solve_ivp = traced_solve_ivp
        cli.run = self.span("cli.run", cli.run)
        for sub, handler in list(cli.HANDLERS.items()):
            cli.HANDLERS[sub] = self.span(f"cli.handler.{sub}", handler)

    # -- output --------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[_NAME], "start": s[_START], "end": s[_END],
                                     "parent": s[_PARENT], "self": s[_END] - s[_START] - s[_CHILD],
                                     "round": s[_ROUND]}) + "\n")
            for (name, rnd), (count, seconds) in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "round": rnd, "count": count, "seconds": seconds}) + "\n")


def _aggregate(tracer):
    """name -> {calls, incl, self, calls0}; calls0 counts round 0 only.
    Spans of round -1 (the worker's own step timing) are left out."""
    agg = {}
    for s in tracer.spans:
        if s[_ROUND] < 0:
            continue
        a = agg.setdefault(s[_NAME], {"calls": 0, "incl": 0.0, "self": 0.0, "calls0": 0})
        d = s[_END] - s[_START]
        a["calls"] += 1
        a["incl"] += d
        a["self"] += d - s[_CHILD]
        if s[_ROUND] == 0:
            a["calls0"] += 1
    return agg


def layer_metrics(tracer, setup, step_timing):
    """Per-layer metrics from the spans, the counters, the set-up phases and
    the diagnostics-free step timing (seconds, steps, step-points).

    Times are means over every call in the run; counts are per round, taken
    from round 0, whose inputs depend on the seed alone.
    """
    agg = _aggregate(tracer)
    zero = {"calls": 0, "incl": 0.0, "self": 0.0, "calls0": 0}
    get = lambda name: agg.get(name, zero)

    def mean(names, kind="incl", scale=1e3):
        calls = sum(get(n)["calls"] for n in names)
        return scale * sum(get(n)[kind] for n in names) / calls if calls else 0.0

    def counter(name):
        items = [(r, v) for (n, r), v in tracer.counters.items() if n == name and r >= 0]
        total = [sum(v[0] for _, v in items), sum(v[1] for _, v in items)]
        first = sum(v[0] for r, v in items if r == 0)
        return total, first

    # analytic residuals called straight from the kerr-check handler: one
    # killing_yano_residual per sample point
    top = [s for s in tracer.spans
           if s[_NAME].startswith("kerr.") and s[_NAME][5:] in KERR_RESIDUALS
           and s[_PARENT] >= 0 and tracer.spans[s[_PARENT]][_NAME].startswith("cli.handler.")]
    points = sum(1 for s in top if s[_NAME] == "kerr.killing_yano_residual")
    rhs, rhs0 = counter("geodesics.rhs")
    step_s, steps, step_points = step_timing

    values = {
        "cli.import_s": setup["import_s"],
        "cli.report_ms": mean(["cli.run"], "self"),
        "kerr.forms_build_s": setup["forms_s"],
        "kerr.metric_us": mean(["kerr.kerr_metric"], "self", 1e6),
        "kerr.residuals_us_per_point": 1e6 * sum(s[_END] - s[_START] for s in top) / points if points else 0.0,
        "kerr.fd_residual_us": mean(["kerr.killing_yano_residual_fd", "kerr.killing_tensor_residual_fd"],
                                    "incl", 1e6),
        "kerr.calls": sum(v["calls0"] for n, v in agg.items() if n.startswith("kerr.")),
        "tensors.cov_deriv_fd_us": mean(["tensors.cov_deriv_fd"], "self", 1e6),
        "tensors.cov_deriv_fd_calls": get("tensors.cov_deriv_fd")["calls0"],
        "maxwell.V_tensor_ms": mean(["maxwell.V_tensor"]),
        "maxwell.divergence_residual_us": mean(["maxwell.maxwell_divergence_residual"], "incl", 1e6),
        "maxwell.field_first_call_ms": mean([f"maxwell.{n}.first" for n in FIRST_CALL_FIELDS]),
        "geodesics.integrate_ms": mean(["geodesics.integrate_geodesic"]),
        "geodesics.rhs_evals": rhs0,
        "geodesics.rhs_us": 1e6 * rhs[1] / rhs[0] if rhs[0] else 0.0,
        "geodesics.drift_ms": mean(["geodesics.conserved_drift"]),
        "waves.step_ns_per_point": 1e9 * step_s / step_points if step_points else 0.0,
        "waves.steps": steps,
        "waves.diagnostics_ms_per_report": (
            1e3 * (get("waves.energy_model3")["incl"] + get("waves.morawetz_bulk")["incl"])
            / get("waves.energy_model3")["calls"] if get("waves.energy_model3")["calls"] else 0.0),
        "waves.reports": get("waves.energy_model3")["calls0"],
        "waves.grid_ms": mean(["waves.WaveGrid"]),
        "hyperbolic1d.goursat_solve_ms": mean(["hyperbolic1d.goursat_solve"]),
        "hyperbolic1d.green_clause_residuals_ms": mean(["hyperbolic1d.green_clause_residuals"]),
        "hyperbolic1d.dirac_solve_direct_ms": mean(["hyperbolic1d.dirac_solve_direct"]),
        "hyperbolic1d.dirac_solve_by_squaring_ms": mean(["hyperbolic1d.dirac_solve_by_squaring"]),
        "index2d.charge_report_ms": mean(["index2d.charge_report"]),
        "slices.constraint_residual_ms": mean(["slices.constraint_residual"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
