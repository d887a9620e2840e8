"""Rewrite the reference reports under tests/reference/.

Each case of CASES is one CLI run: its argv, without `--out` and `--csv`.
`tests/test_reference_reports.py` runs every case again and compares what it
writes with what this script stored:
  * reference/<case>.json: the JSON report, with the `out` and `csv` paths
    in its config masked as "<out>" and "<csv>";
  * reference/<case>.csv: the CSV, for the cases that write one;
  * reference/manifest.json: the numpy version and the CPU features numpy
    dispatches on, and per case its argv, exit code and stderr.

Run from anywhere, with numpy installed:

    python tests/write_references.py

A change that moves a reference should say which fields moved and by how
much.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "tests", "reference")
WITH_CSV = ("geodesic", "wave-evolve")

CASES = [[sub] for sub in ("kerr-check", "geodesic", "wave-evolve", "morawetz",
                           "maxwell-currents", "green", "goursat", "dirac", "index")]
CASES += [["wave-evolve", "--a", "0.9", "--m-phi", "1"]]
# morawetz at a in {0, 0.1} x m_phi in {0, 1}, serial and forked; the
# default run is a = 0.1, m_phi = 0, serial
CASES += [["morawetz", "--a", a, "--m-phi", m_phi] + threads
          for threads in ([], ["--threads", "2"]) for a in ("0", "0.1") for m_phi in ("0", "1")
          if threads or (a, m_phi) != ("0.1", "0")]
CASES += [
    # known failures, each with its exit code: a mend shows here as a
    # changed reference, never as a case dropped from this list
    ["maxwell-currents", "--field", "coulomb"],
    ["morawetz", "--t-end", "0.001", "--n-r", "32", "--n-theta", "8"],
    ["kerr-check", "--m", "1e10"],
    # mended known failures: two near-extremal plunges, the second the
    # chart check's null case (it starts at r - r+ = 0.955 m)
    ["geodesic", "--a", "0.999", "--r0", "4"],
    ["geodesic", "--a", "0.999", "--r0", "2"],
]


def case_name(argv):
    """The file stem of a case: its argv joined, flags without dashes."""
    return "_".join(re.sub(r"^--", "", word) for word in argv)


def numpy_build():
    """(numpy version, sorted CPU features numpy dispatches on)."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__

    return np.__version__, sorted(k for k, on in __cpu_features__.items() if on)


def run_case(argv, directory):
    """Run one case with its report (and CSV) written into directory; return
    (exit code, stderr, masked report text or None, CSV text or None)."""
    from kerrlab.cli import main

    paths = {"out": os.path.join(directory, "report.json")}
    if argv[0] in WITH_CSV:
        paths["csv"] = os.path.join(directory, "series.csv")
    args = list(argv)
    for key, path in paths.items():
        args += [f"--{key}", path]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(args)
    texts = dict.fromkeys(paths)
    for key, path in paths.items():
        if os.path.exists(path):
            with open(path) as f:
                texts[key] = f.read()
    report = texts["out"]
    if report is not None:
        for key, path in paths.items():
            report = report.replace(json.dumps(path), json.dumps(f"<{key}>"))
    return code, err.getvalue(), report, texts.get("csv")


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    version, features = numpy_build()
    os.makedirs(REFERENCE, exist_ok=True)
    for file in os.listdir(REFERENCE):
        os.unlink(os.path.join(REFERENCE, file))
    cases = {}
    for argv in CASES:
        name = case_name(argv)
        with tempfile.TemporaryDirectory() as directory:
            code, err, report, series = run_case(argv, directory)
        for suffix, text in ((".json", report), (".csv", series)):
            if text is not None:
                with open(os.path.join(REFERENCE, name + suffix), "w", newline="") as fh:
                    fh.write(text)
        cases[name] = {"argv": argv, "exit": code, "stderr": err}
        print(f"exit {code}: {' '.join(argv)}")
    manifest = {"numpy": version, "cpu_features": features, "cases": cases}
    with open(os.path.join(REFERENCE, "manifest.json"), "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
