"""Each case of `write_references.CASES` writes the report, CSV, exit code
and stderr stored under tests/reference/.

On the numpy version and CPU features the references were written with, the
comparison is of bytes.  Elsewhere numpy's SIMD paths for exp, sin and cos
may round differently, so floats (in the report, the CSV and the messages)
are compared to a relative RTOL, and exit codes, failure names, integers and
all other text exactly.  `python tests/write_references.py` rewrites the
references.
"""

import csv
import io
import json
import math
import os
import re

import pytest

from write_references import CASES, REFERENCE, case_name, numpy_build, run_case

RTOL = 1e-12  # relative, for floats on another numpy build or CPU

with open(os.path.join(REFERENCE, "manifest.json")) as fh:
    MANIFEST = json.load(fh)
SAME_BUILD = numpy_build() == (MANIFEST["numpy"], MANIFEST["cpu_features"])
NUMBER = re.compile(r"(-?(?:inf|nan|\d+(?:\.\d*)?(?:[eE][-+]?\d+)?))")


def assert_text_close(actual, expected, where):
    """Numbers in two texts within RTOL (integers equal), the rest equal."""
    a, e = NUMBER.split(actual), NUMBER.split(expected)
    assert len(a) == len(e) and a[::2] == e[::2], (where, actual, expected)
    for x, y in zip(a[1::2], e[1::2]):
        if re.fullmatch(r"-?\d+", y):
            assert x == y, (where, actual, expected)
        else:
            assert math.isclose(float(x), float(y), rel_tol=RTOL) or x == y, (where, x, y)


def assert_json_close(actual, expected, where="report"):
    assert type(actual) is type(expected), (where, actual, expected)
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            assert_json_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (x, y) in enumerate(zip(actual, expected)):
            assert_json_close(x, y, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=RTOL), (where, actual, expected)
    elif isinstance(expected, str):
        assert_text_close(actual, expected, where)
    else:  # int, bool, None
        assert actual == expected, (where, actual, expected)


def stored(name, suffix):
    path = os.path.join(REFERENCE, name + suffix)
    if not os.path.exists(path):
        return None
    with open(path, newline="") as fh:
        return fh.read()


def test_the_references_are_those_of_the_cases():
    names = {case_name(argv) for argv in CASES}
    assert set(MANIFEST["cases"]) == names
    files = {f.rsplit(".", 1)[0] for f in os.listdir(REFERENCE) if f != "manifest.json"}
    assert files <= names


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_report_matches_its_reference(tmp_path, argv):
    name = case_name(argv)
    expected = MANIFEST["cases"][name]
    code, err, report, series = run_case(argv, str(tmp_path))
    assert expected["argv"] == argv
    assert code == expected["exit"], err
    if SAME_BUILD:
        assert err == expected["stderr"]
        assert report == stored(name, ".json")
        assert series == stored(name, ".csv")
        return
    assert_text_close(err, expected["stderr"], "stderr")
    for text, suffix in ((report, ".json"), (series, ".csv")):
        ref = stored(name, suffix)
        assert (text is None) == (ref is None), suffix
        if ref is None:
            continue
        if suffix == ".json":
            assert_json_close(json.loads(text), json.loads(ref))
        else:
            rows, ref_rows = (list(csv.reader(io.StringIO(t))) for t in (text, ref))
            assert len(rows) == len(ref_rows) and rows[0] == ref_rows[0]
            for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
                assert len(row) == len(ref_row), f"csv row {i}"
                for cell, ref_cell in zip(row, ref_row):
                    assert_text_close(cell, ref_cell, f"csv row {i}")
