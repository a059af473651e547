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


def _checkpoint(omega: list[float], t: float = 1.0) -> bytes:
    # an n = 8 MPF1 checkpoint: u1 and u2 zero, omega's first floats given
    import struct

    import numpy as np

    payload = np.zeros(3 * 8 * 8 * 2)
    payload[2 * 8 * 8 * 2:][:len(omega)] = omega
    header = struct.pack("<4sII6d", b"MPF1", 1, 8, 6.25, 0.15, 0.075, 0.15, t, 0.0)
    return header + payload.astype("<f8").tobytes()


def test_checkpoint_sign_of_zero_reads_zero_and_is_counted():
    parent = _checkpoint([0.0, 2.0, 0.0, -4.0])
    change = _checkpoint([-0.0, 2.0, -0.0, -4.0])
    assert change != parent
    assert deviation("simulate/final.ckpt", change, parent) \
        == (0.0, "2 floats differ only in the sign of zero")


def test_checkpoint_value_change_reads_its_field():
    parent = _checkpoint([1.0, 2.0, 0.0, -4.0])
    change = _checkpoint([1.0, 2.0, -0.0, -4.000000000004])
    dev, where = deviation("simulate/final.ckpt", change, parent)
    assert where == "field omega, 1 floats differ only in the sign of zero"
    assert dev == pytest.approx(1e-12, rel=1e-3)


@pytest.mark.parametrize("change", [_checkpoint([1.0, 2.0], t=1.5), _checkpoint([1.0, 2.0])[:-8]],
                         ids=["header", "size"])
def test_checkpoint_header_or_size_change_reads_infinite(change):
    assert deviation("final.ckpt", change, _checkpoint([1.0, 2.0]))[0] == math.inf


report = _tool()._report


def test_csv_report_lists_every_differing_column():
    # two columns move (one only in the text of a zero), one keeps its bytes
    parent = b"# config_hash=abc\nt,u,f\n0,2.0,0.5\n1,-4.0,0.25\n2,0,1\n"
    change = b"# config_hash=abc\nt,u,f\n0,2.0000000002,0.5\n1,-4.0,0.25\n2,-0,1\n"
    change = change.replace(b"t,u,f\n0,", b"t,u,f\n0.0,")
    lines = report("series.csv", change, parent)
    assert lines[0] == "  differs: series.csv (largest normalized deviation 5.00e-11, column u)"
    assert lines[1:] == ["    column t: 0.00e+00", "    column u: 5.00e-11",
                         "    the other 1 columns are byte-identical: f"]


def test_csv_report_without_identical_columns():
    parent = b"t,x\n0,1\n"
    change = b"t,x\n1,2\n"
    assert report("a.csv", change, parent)[1:] == [
        "    column t: inf", "    column x: 1.00e+00", "    the other 0 columns are byte-identical"]


def test_csv_report_of_a_changed_header_stops_at_the_file():
    assert report("a.csv", b"t,x\n0,1\n", b"t,y\n0,1\n") == [
        "  differs: a.csv (largest normalized deviation inf, shape or header)"]


def test_host_line_names_versions_and_blas():
    import platform

    import numpy

    line = _tool().host()
    assert line.startswith(f"host: Python {platform.python_version()}, numpy {numpy.__version__}, ")
    config, corename = _tool()._openblas()
    assert f"OpenBLAS config {config!r}, core {corename}" in line
    # a config string names the core it was read with, or both are unknown
    assert (config, corename) == ("unknown", "unknown") or corename in config
