"""`tools/output_diff.py`'s verdict on synthetic runs.

`run_differs` decides the tool's exit status from one run's exit codes,
`compare`'s float and exact fields, and whether stdout or stderr differ:
two checkouts agree only when every run agrees everywhere.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from output_diff import compare, run_differs  # noqa: E402

PARENT = {"cost": {(): 1.5}, "methods[]": {(0,): 1, (1,): 2},
          "trP": {(0,): 0.25, (1,): math.nan}}


def verdict(change, old_code=0, new_code=0, streams_differ=False):
    return run_differs(old_code, new_code, *compare(PARENT, change), streams_differ)


def test_identical_outputs_agree():
    assert compare(PARENT, PARENT) == ({"cost": 0.0, "trP": 0.0}, {})
    assert not verdict(PARENT)


def test_two_missing_outputs_agree():
    assert not run_differs(1, 1, *compare({}, {}), False)


def test_exit_code_differs():
    assert verdict(PARENT, new_code=2)


def test_streams_differ():
    assert verdict(PARENT, streams_differ=True)


@pytest.mark.parametrize("rows", [{(0,): 1, (1,): 1}, {(0,): 1}])
def test_exact_field_differs(rows):
    assert verdict(dict(PARENT, **{"methods[]": rows}))


@pytest.mark.parametrize("field,row,value", [
    ("cost", (), 1.5 + 2.0 ** -52),  # one ulp
    ("cost", (), math.nan),
    ("trP", (1,), 0.25),  # a NaN against a number, in a field's later row
])
def test_float_field_differs(field, row, value):
    change = dict(PARENT, **{field: {**PARENT[field], row: value}})
    assert compare(PARENT, change)[0][field] != 0.0
    assert verdict(change)


def test_missing_output_differs():
    assert verdict({})
