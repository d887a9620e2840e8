"""Which functions under src/kerrlab no run of the program reaches, and
which of their values no program caller varies.

The trace runs, in this one process and under `sys.setprofile`:
  * the nine subcommands of `kerrlab.cli` at their default configs
    (`geodesic` and `wave-evolve` with `--csv`),
    `maxwell-currents --field coulomb`, `morawetz --threads 2` and
    `kerr-check --config FILE`;
  * the acceptance criteria but the fourth, `tests/test_acceptance.py
    -k "not criterion_4"` (criterion 4 reaches nothing that `wave-evolve`
    does not, and takes most of the suite's time).
Every report and CSV is written to a temporary directory.  Then it prints each
function defined under src/kerrlab that never ran, with the number of lines
of its definition (the `def` line through its last line), and the totals.  A
function nested in one that never ran is counted in its enclosing function's
lines, not listed again.  The functions of UNTRACED run where the trace
cannot see them, and are named there with the place they run.

The census that follows reads the source alone.  The program's callers are
src/kerrlab (the CLI among it), tests/test_acceptance.py and perfbench/;
unit tests are not.  A call is matched to the functions of its name, those of
the calling module first, and a wrapper that passes on its own *args and
**kwargs to a function of the program counts its callers as that function's.
It lists:
  * each parameter with a default that no program caller sets;
  * each parameter that every program call passes at one fixed value (a
    literal or a numpy or math constant), where that value is the default
    or more than one call passes it.  A class constructor called with
    `f=x.f` only passes on the field f of another instance: that argument
    adds no value of its own, so a field that is copied from instance to
    instance and otherwise always set to one value is listed;
  * each parameter that its function never reads (the generated
    `_closed_forms` kernels excepted: they all take (m, a, r, th));
  * each dataclass field that no program code reads as an attribute, unless
    the program reads the instance whole (`asdict`, or `__dict__` of a
    function's annotated result);
  * each CLI config key whose every read in its subcommand's handler (and
    in the `cli` functions that the handler passes its config to) is a
    bound of `cli._check`: a key that can only move a check's bound.
What is listed but kept on purpose is named under KEPT, with the reason.

The script exits 1 if a function that never ran is neither in UNTRACED nor
in KEPT, if the census lists a row that KEPT does not name, or if an entry of
KEPT or UNTRACED names nothing that is listed; else 0.  Run from anywhere,
with numpy and pytest installed:

    python tests/reachability.py

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kerrlab")

SUBCOMMANDS = ("kerr-check", "geodesic", "wave-evolve", "morawetz", "maxwell-currents",
               "green", "goursat", "dirac", "index")
WITH_CSV = ("geodesic", "wave-evolve")


def _runs(out):
    """(name, argv) of every CLI run, writing into the directory out."""
    runs = []
    for sub in SUBCOMMANDS:
        argv = [sub, "--out", os.path.join(out, f"{sub}.json")]
        if sub in WITH_CSV:
            argv += ["--csv", os.path.join(out, f"{sub}.csv")]
        runs.append((sub, argv))
    argv = ["maxwell-currents", "--field", "coulomb", "--out", os.path.join(out, "coulomb.json")]
    runs.append(("maxwell-currents --field coulomb", argv))
    argv = ["morawetz", "--threads", "2", "--out", os.path.join(out, "forked.json")]
    runs.append(("morawetz --threads 2", argv))
    config = os.path.join(out, "config.json")
    with open(config, "w") as fh:
        json.dump({"out": os.path.join(out, "configured.json")}, fh)
    runs.append(("kerr-check --config FILE", ["kerr-check", "--config", config]))
    return runs


def _definitions(path):
    """(first line, qualified name, lines, enclosing definition's first line or
    None) of every function defined in the file; the first line is that of
    the first decorator, as in the function's code object."""
    tree = ast.parse(open(path).read(), path)
    found = []

    def walk(node, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append((first, name, child.end_lineno - child.lineno + 1, parent))
                walk(child, name + ".", first)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", parent)
            else:
                walk(child, prefix, parent)

    walk(tree, "", None)
    return found


# ---------------------------------------------------------------------------
# the census: values that no program caller varies
# ---------------------------------------------------------------------------

# The program's callers: the library and its CLI, the acceptance criteria and
# the benchmark.  Unit tests do not count.
PROGRAM = ([os.path.join(PACKAGE, f) for f in sorted(os.listdir(PACKAGE)) if f.endswith(".py")]
           + [os.path.join(ROOT, "tests", "test_acceptance.py")]
           + [os.path.join(ROOT, "perfbench", f)
              for f in sorted(os.listdir(os.path.join(ROOT, "perfbench"))) if f.endswith(".py")])
# The generated kernels all take (m, a, r, th), and the geodesics' two the momenta
# too, whether their form reads m or not.
GENERATED = ("_closed_forms",)
# Functions that run where `sys.setprofile` does not see them: name -> where.
UNTRACED = {
    **dict.fromkeys(("_derive._exprs", "_derive._hamiltonian_forms", "_derive._nonzero",
                     "_derive._ProductPowers._print_Pow", "_derive._kernel", "_derive.emit",
                     "_derive.identities", "_derive._evaluate", "_derive.check_identities",
                     "_derive.main"), "the derivation, `python -m kerrlab._derive` (needs sympy)"),
    "cli._send_outcome": "the child that `morawetz --threads 2` forks",
}
# Listed by the census or never run, but kept: name -> reason.
KEPT = {
    "__init__.__dir__": "dir(kerrlab) lists the public names before they resolve (PEP 562)",
    "hyperbolic1d.apply_wave_operator(twist)":
        "the reference that tests hold the twisted cauchy_solve against",
    "geodesics.photon_orbit_radius(prograde)":
        "the two orbit senses of Bardeen, Press & Teukolsky (1972)",
    "hyperbolic1d.green_clause_residuals(potential)":
        "the one-potential form of the clause check; the green command marches its two at once",
    "hyperbolic1d.formal_dual_residual(potential)": "the potential V of P = box + V, as green takes it",
    "cli.main(argv)": "None reads sys.argv; an in-process caller passes a list",
    "kerr.BLPoint(t)":
        "the time component of coords, which the 4-D stencils difference; the program "
        "samples the stationary geometry at t = 0",
    "_derive.main(argv)": "None reads sys.argv, as in cli.main",
    "geodesics.conserved_drift(causal_type)": "criterion 2 passes it, and the criteria are fixed",
    "geodesics._geodesic_rhs.rhs(tau)":
        "the integrator calls fun(tau, y); the super-Hamiltonian H of the geodesics does not "
        "depend on tau, so neither does its flow",
    "maxwell.maxwell_divergence_residual(step)":
        "the step of maxwell-currents --step, which the CLI varies through _divergence",
    "maxwell._lie(name)": "the inner stencil of _currents, named where it builds the stencil",
    "slices.schwarzschild_slice(m)": "the slice's mass, which perfbench passes",
    "slices.round_sphere_slice(radius)": "the sphere's radius, which sets its curvature 6/radius^2",
    "maxwell.CurrentReport.Z": "V_tensor's Z_ab, one of the paper's currents",
    "maxwell.CurrentReport.V": "V_tensor's V_ab, the conserved tensor that it is named for",
    "tensors.MetricData.christoffel": "kerr_metric's Christoffel symbols, beside g and g_inv",
}
UNSET = "<unset>"


class Callable(NamedTuple):
    module: str
    qualname: str
    params: list  # [(name, default node or None)]
    bound: bool  # the first parameter is self, which a call does not pass
    node: ast.AST


def _constant(node):
    """ast.unparse of a value fixed in the source (a literal, a tuple of
    literals, a numpy or math constant such as np.inf), else None."""
    if isinstance(node, ast.Constant) or (isinstance(node, ast.UnaryOp)
                                          and isinstance(node.operand, ast.Constant)):
        return ast.unparse(node)
    if isinstance(node, ast.Tuple) and all(_constant(e) for e in node.elts):
        return ast.unparse(node)
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "math")):
        return ast.unparse(node)
    return None


def _parameters(fn):
    args = fn.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    return (list(zip((a.arg for a in positional), defaults))
            + list(zip((a.arg for a in args.kwonlyargs), args.kw_defaults)))


def _decorated(node, name):
    return any(name in (getattr(d, "id", None), getattr(d, "attr", None),
                        getattr(getattr(d, "func", None), "id", None)) for d in node.decorator_list)


def _callables(module, tree):
    """Every function of a module, and every class as its constructor: a
    dataclass by its fields, another class by its __init__'s parameters."""
    found = []

    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                bound = in_class and not _decorated(child, "staticmethod")
                if not (in_class and child.name == "__init__"):  # the class stands for it
                    found.append(Callable(module, prefix + child.name, _parameters(child), bound, child))
                walk(child, prefix + child.name + ".", False)
            elif isinstance(child, ast.ClassDef):
                init = [f for f in child.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
                if _decorated(child, "dataclass"):
                    fields = [(f.target.id, f.value) for f in child.body
                              if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
                    found.append(Callable(module, prefix + child.name, fields, False, child))
                elif init:
                    found.append(Callable(module, prefix + child.name, _parameters(init[0]), True, init[0]))
                walk(child, prefix + child.name + ".", True)
            else:
                walk(child, prefix, in_class)

    walk(tree, "", False)
    return found


class _Calls(ast.NodeVisitor):
    """Every call of a tree, with the name and *args/**kwargs names of the
    function it is made in."""

    def __init__(self):
        self.scope, self.calls = [(None, set())], []

    def visit_FunctionDef(self, node):
        self.scope.append((node.name, {a.arg for a in (node.args.vararg, node.args.kwarg) if a}))
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        self.calls.append((node,) + self.scope[-1])
        self.generic_visit(node)


def _callee(call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _bound_keys(tree):
    """(label, note, line) of each key of `cli.SCHEMAS` whose every read in its
    handler is a bound (lo or hi) of a `_check` call."""
    top = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    tables = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)}
    schemas = {sub.value: [k.value for k in keys.keys]
               for sub, keys in zip(tables["SCHEMAS"].keys, tables["SCHEMAS"].values)}
    handlers = dict(zip((k.value for k in tables["HANDLERS"].keys),
                        (v.id for v in tables["HANDLERS"].values)))

    def reached(name):
        """The handler and the cli functions it passes cfg to, transitively."""
        found, todo = [], [name]
        while todo:
            fn = top[todo.pop()]
            if fn in found:
                continue
            found.append(fn)
            todo += [_callee(n) for n in ast.walk(fn) if isinstance(n, ast.Call)
                     and _callee(n) in top
                     and any(getattr(a, "id", None) == "cfg" for a in n.args)]
        return found

    rows = []
    for sub, keys in schemas.items():
        functions = reached(handlers[sub])
        bounds = {id(n) for fn in functions for call in ast.walk(fn)
                  if isinstance(call, ast.Call) and _callee(call) == "_check"
                  for arg in call.args[3:] + [k.value for k in call.keywords if k.arg in ("lo", "hi")]
                  for n in ast.walk(arg)}
        reads = {}  # key -> its reads: cfg["key"] and cfg.get("key")
        for fn in functions:
            for n in ast.walk(fn):
                if (isinstance(n, ast.Subscript) and getattr(n.value, "id", None) == "cfg"
                        and isinstance(n.slice, ast.Constant)):
                    reads.setdefault(n.slice.value, []).append(n)
                elif (isinstance(n, ast.Call) and _callee(n) == "get" and n.args
                      and getattr(getattr(n.func, "value", None), "id", None) == "cfg"
                      and isinstance(n.args[0], ast.Constant)):
                    reads.setdefault(n.args[0].value, []).append(n)
        for key in keys:
            found = reads.get(key, [])
            if found and all(id(n) in bounds for n in found):
                rows.append((f"cli.SCHEMAS[{sub!r}][{key!r}]",
                             f"read only as a bound of _check ({len(found)} reads)", found[0].lineno))
    return rows


def census():
    """Print the parameters and dataclass fields that no program caller
    varies, the parameters that their function never reads, the CLI config
    keys that only move a check's bound, and what of these is kept; return
    the labels of the rows listed but not kept, and of those kept."""
    trees = {path: ast.parse(open(path).read(), path) for path in PROGRAM}
    defs = [(path, c) for path in PROGRAM if os.path.dirname(path) == PACKAGE
            for c in _callables(os.path.basename(path)[:-3], trees[path])]
    by_name = {}  # a call's name -> the (file, Callable) it may mean
    for path, c in defs:
        by_name.setdefault(c.qualname.rsplit(".", 1)[-1], []).append((path, c))
    calls = {}
    for path, tree in trees.items():
        visitor = _Calls()
        visitor.visit(tree)
        calls[path] = visitor.calls
    # a wrapper that passes on its own *args and **kwargs: (file, name) -> the
    # name it calls; its callers count as that function's.  Only a function of
    # the program makes a wrapper: passing them on to a callable parameter
    # (on_points' f) or to numpy (np.broadcast_arrays) does not.
    forwards = {}
    for path, found in calls.items():
        for call, scope, varargs in found:
            starred = [a.value for a in call.args if isinstance(a, ast.Starred)] + \
                      [k.value for k in call.keywords if k.arg is None]
            if (starred and all(getattr(v, "id", None) in varargs for v in starred)
                    and _callee(call) in by_name):
                forwards[path, scope] = _callee(call)

    # (module, qualname, parameter) -> the values the calls pass: the source
    # text of a fixed value, None for any other, UNSET where a call omits it
    values, opaque = {}, set()
    for path, found in calls.items():
        for call, scope, _ in found:
            if (path, scope) in forwards and _callee(call) == forwards[path, scope]:
                continue
            targets = by_name.get(_callee(call), [])
            if any(p == path for p, _ in targets):  # a name defined here means this one
                targets = [(p, c) for p, c in targets if p == path]
            for p, c in list(targets):
                if (p, c.qualname) in forwards:
                    targets.remove((p, c))
                    targets += [t for t in by_name[forwards[p, c.qualname]] if t[0] != p]
            starred = any(isinstance(a, ast.Starred) for a in call.args) or \
                any(k.arg is None for k in call.keywords)
            for _, c in targets:
                if starred:
                    opaque.add((c.module, c.qualname))
                    continue
                params = c.params[int(c.bound):]
                given = dict(zip((p for p, _ in params), call.args))
                given.update((k.arg, k.value) for k in call.keywords)
                constructor = isinstance(c.node, ast.ClassDef) or c.node.name == "__init__"
                for p, _ in params:
                    if constructor and getattr(given.get(p), "attr", None) == p:
                        continue  # a field passed on, f=x.f, adds no value of its own
                    values.setdefault((c.module, c.qualname, p), []).append(
                        _constant(given[p]) if p in given else UNSET)

    # attribute names that program code reads, and the classes whose
    # instances it reads whole (asdict, or __dict__ of a function's result)
    loads, whole = set(), set()
    returns = {c.qualname: c.node.returns.id for _, c in defs
               if isinstance(c.node, ast.FunctionDef) and isinstance(c.node.returns, ast.Name)}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
                if node.attr == "__dict__" and isinstance(node.value, ast.Call):
                    whole.add(returns.get(_callee(node.value)))
            elif isinstance(node, ast.ClassDef) and any(
                    isinstance(n, ast.Call) and _callee(n) == "asdict" for n in ast.walk(node)):
                whole.add(node.name)

    unset, one_value, unread, fields = [], [], [], []
    for _, c in defs:
        for p, default in c.params[int(c.bound):]:
            label = f"{c.module}.{c.qualname}({p})"
            passed = values.get((c.module, c.qualname, p), [])
            if (c.module, c.qualname) in opaque:
                continue
            if default is not None and all(v == UNSET for v in passed):
                unset.append((label, f"= {ast.unparse(default)}", c.node.lineno))
                continue
            fixed = {_constant(default) if v == UNSET else v for v in passed}
            # one value at a single call is that call's data, unless it is the default
            if len(fixed) == 1 and None not in fixed and (default is not None or len(passed) > 1):
                one_value.append((label, f"always {fixed.pop()} ({len(passed)} calls)", c.node.lineno))
        if isinstance(c.node, ast.FunctionDef) and c.module not in GENERATED:
            names = {n.id for n in ast.walk(c.node) if isinstance(n, ast.Name)}
            unread += [(f"{c.module}.{c.qualname}({p})", "", c.node.lineno)
                       for p, _ in c.params[int(c.bound):] if p not in names]
        if isinstance(c.node, ast.ClassDef) and c.node.name not in whole:
            fields += [(f"{c.module}.{c.qualname}.{f}", "", c.node.lineno)
                       for f, _ in c.params if f not in loads]

    bound_keys = _bound_keys(trees[os.path.join(PACKAGE, "cli.py")])

    kept = []
    for title, rows in (("parameters with a default that no program caller sets", unset),
                        ("parameters that every program call passes at one value", one_value),
                        ("parameters that their function never reads", unread),
                        ("dataclass fields that no program code reads", fields),
                        ("CLI config keys read only as a bound of a check", bound_keys)):
        listed = [row for row in rows if row[0] not in KEPT]
        kept += [row for row in rows if row[0] in KEPT]
        print(f"\n{title} ({len(listed)}):")
        for label, note, line in listed:
            print(f"  {label}{' ' + note if note else ''}  (line {line})")
    print(f"\nlisted by the census but kept ({len(kept)}):")
    for label, _, line in kept:
        print(f"  {label}  (line {line}): {KEPT[label]}")
    return [row[0] for rows in (unset, one_value, unread, fields, bound_keys)
            for row in rows if row[0] not in KEPT], [row[0] for row in kept]


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with tempfile.TemporaryDirectory() as out:
        sys.setprofile(profile)
        try:
            from kerrlab import cli

            exits = [(name, cli.main(argv)) for name, argv in _runs(out)]
            acceptance = pytest.main([os.path.join(ROOT, "tests", "test_acceptance.py"), "-q",
                                      "-k", "not criterion_4", "-p", "no:cacheprovider"])
        finally:
            sys.setprofile(None)

    for name, code in exits:
        print(f"exit {code}: {name}")
    print(f"acceptance criteria (not 4): pytest exit {int(acceptance)}")

    ran = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}
    total_functions = unreached_lines = 0
    unreached = []
    for file in sorted(os.listdir(PACKAGE)):
        if not file.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(PACKAGE, file))
        definitions = _definitions(path)
        total_functions += len(definitions)
        for first, name, lines, parent in definitions:
            if (path, first) in ran:
                continue
            if parent is not None and (path, parent) not in ran:
                continue  # inside a function that never ran: counted there
            unreached.append((file[:-3], name, first, lines))
            unreached_lines += lines

    print(f"\nfunctions under src/kerrlab that never ran ({len(unreached)} of {total_functions}):")
    for module, name, first, lines in unreached:
        label = f"{module}.{name}"
        reason = (f": untraced, {UNTRACED[label]}" if label in UNTRACED
                  else f": kept, {KEPT[label]}" if label in KEPT else "")
        print(f"  {lines:4d}  {label}  (line {first}){reason}")
    print(f"  {unreached_lines:4d}  lines in {len(unreached)} functions")
    listed, kept = census()

    never_ran = [f"{module}.{name}" for module, name, _, _ in unreached]
    faults = [f"never ran, and neither untraced nor kept: {label}" for label in never_ran
              if label not in UNTRACED and label not in KEPT]
    faults += [f"listed by the census, and not kept: {label}" for label in listed]
    faults += [f"names nothing listed: {label}" for label in {**UNTRACED, **KEPT}
               if label not in never_ran and label not in kept]
    print(f"\nfaults ({len(faults)}):")
    for fault in faults:
        print(f"  {fault}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
