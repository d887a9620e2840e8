"""Which functions under src/kerrlab no run of the program reaches.

Runs, in this one process and under `sys.setprofile`:
  * the nine subcommands of `kerrlab.cli` at their default configs
    (`geodesic` and `wave-evolve` with `--csv`), and
    `maxwell-currents --field coulomb`;
  * the acceptance criteria but the fourth, `tests/test_acceptance.py
    -k "not criterion_4"` (criterion 4 reaches nothing that `wave-evolve`
    does not, and takes most of the suite's time).
Every report and CSV is written to a temporary directory.  Then it prints each
function defined under src/kerrlab that never ran, with the number of lines
of its definition (the `def` line through its last line), and the totals.  A
function nested in one that never ran is counted in its enclosing function's
lines, not listed again.  `--threads 2` is not run, so the fork path of
`cli._forked` (`_send_outcome` and `result`) is listed.

Run from anywhere, with numpy and pytest installed:

    python tests/reachability.py

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile

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
        print(f"  {lines:4d}  {module}.{name}  (line {first})")
    print(f"  {unreached_lines:4d}  lines in {len(unreached)} functions")


if __name__ == "__main__":
    main()
