"""
The deviation report of ``tools/same_outputs.py``: for an output file that
differs between two trees, the largest normalized deviation and where it
is, so that a change that moves bits on purpose can state its budget.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


deviation = _tool()._deviation


def test_csv_deviation_per_column():
    # max|a - b| / max|b| of each column, the comment line compared exactly
    parent = b"# config_hash=abc\nt,trace\n0,2.0\n1,-4.0\n"
    change = b"# config_hash=abc\nt,trace\n0,2.0\n1,-4.000000000004\n"
    dev, where = deviation("lyapunov/qn_series.csv", change, parent)
    assert where == "column trace"
    assert dev == pytest.approx(1e-12, rel=1e-3)


def test_json_deviation_per_value():
    parent = json.dumps({"exponents": [1.0, -0.5], "converged": True, "n": 32}).encode()
    change = json.dumps({"exponents": [1.0, -0.5000000001], "converged": True, "n": 32}).encode()
    dev, where = deviation("lyapunov/lyapunov.json", change, parent)
    assert where == ".exponents[1]"
    assert dev == pytest.approx(2e-10, rel=1e-3)


@pytest.mark.parametrize("name,change,parent", [
    ("a.json", b'{"converged": false}', b'{"converged": true}'),
    ("a.json", b'{"x": 1e-300}', b'{"x": 0.0}'),
    ("a.csv", b"# config_hash=abc\nt\n0\n", b"# config_hash=abd\nt\n0\n"),
    ("a.csv", b"t,x\n0,1\n", b"t,y\n0,1\n"),
    ("final.ckpt", b"MPF1\x01", b"MPF1\x02"),
    ("a.json", b'{"x": 1}', None),
], ids=["bool", "zero-base", "comment", "header", "binary", "missing"])
def test_other_differences_read_infinite(name, change, parent):
    assert deviation(name, change, parent)[0] == math.inf
