"""
Check that two source trees give the same CLI outputs on the benchmark's
workloads.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC [--seed S]

PARENT_SRC and CHANGE_SRC are source checkouts (each holds
``src/micropolar``).  For every part of every workload in
``perfbench/workloads.py`` (read only; nothing there is changed), the
part's configs for seed S are written to a fresh directory per tree, and
the part's commands run there in order, each as
``python3 -m micropolar.cli`` with that tree's ``src`` on PYTHONPATH.
Every file the commands leave (``final.ckpt``, CSV series, JSON
summaries) is then compared byte for byte between the two trees; the
``"timestamp"`` value of a JSON summary is the one thing ignored.

First prints the host it runs on: the Python and numpy versions, and the
config and core name of the OpenBLAS library bundled with numpy (read
through ctypes; "unknown" where the library or its symbols are absent),
since a BLAS kernel other than this host's may write other bytes.  Then
prints one line per part and the differing files, and exits 1 when an
exit code or a file differs, 0 otherwise.  For each differing CSV or JSON
file it also prints the largest normalized deviation and where it is:
over the CSV columns, max|a - b| / max|b| of each column; over the JSON
numbers, |a - b| / |b| of each value (a zero b counts a difference as
infinite); over an MPF1 checkpoint (``final.ckpt``), whose header must
be equal, max|a - b| / max|b| of each field's payload floats (u1, u2,
omega), with the count of floats that differ only in the sign of zero.
Any other difference, in a string, a structure, a checkpoint's header or
size, or another binary file, reads as infinite.  For a differing CSV
file it then lists every column whose text differs, with its deviation,
and names the columns that are byte-identical.  So a change that moves bits on purpose can state its
budget, and which columns it keeps, from one command.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')
# the header of an MPF1 checkpoint (micropolar.dynamics.write_checkpoint):
# magic, version, n, (L, nu, nu_r, alpha, t, reserved); then the spectra of
# u1, u2 and omega, n x n complex each, as little-endian floats
_CHECKPOINT = struct.Struct("<4sII6d")
_FIELDS = ("u1", "u2", "omega")


def _openblas() -> tuple[str, str]:
    """(config, core name) of the OpenBLAS library that numpy bundles, each
    "unknown" where the library or its symbol is absent."""
    import numpy

    found = {"config": "unknown", "corename": "unknown"}
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for key in found:
            symbol = getattr(lib, f"scipy_openblas_get_{key}64_", None)
            if symbol is not None:
                symbol.restype = ctypes.c_char_p
                found[key] = symbol().decode()
    return found["config"], found["corename"]


def host() -> str:
    """The line naming the host that the comparison runs on."""
    import numpy

    config, corename = _openblas()
    return (f"host: Python {platform.python_version()}, numpy {numpy.__version__}, "
            f"OpenBLAS config {config!r}, core {corename}")


def _run_part(root: Path, workdir: Path, part, seed: int) -> list[int]:
    """Write the part's configs for ``seed`` into ``workdir`` and run its
    commands there under the tree at ``root``; returns their exit codes."""
    workdir.mkdir(parents=True)
    for name, cfg in part.build(seed, False).items():
        (workdir / name).write_text(json.dumps(cfg, indent=1))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")
    return [subprocess.run([sys.executable, "-m", "micropolar.cli", *command.argv()],
                           cwd=workdir, env=env, stdout=subprocess.DEVNULL).returncode
            for command in part.commands]


def _contents(path: Path) -> bytes:
    data = path.read_bytes()
    return _TIMESTAMP.sub(b'"timestamp": ""', data) if path.suffix == ".json" else data


def _files(workdir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(workdir)): _contents(p)
            for p in sorted(workdir.rglob("*")) if p.is_file()}


def _csv_columns(a: bytes, b: bytes) -> tuple[list[tuple[str, float]], list[str]]:
    """
    (differing, identical) over the columns of two CSV files: each column
    whose fields differ as text, with its normalized deviation
    max|a - b| / max|b| (infinite when it is not numeric), and the names
    of the columns that are byte-identical.  Raises ValueError naming what
    differs when the ``#`` comment lines, the shape or the header do.
    """
    lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    if [x for x in lines_a if x.startswith("#")] != [x for x in lines_b if x.startswith("#")]:
        raise ValueError("comment lines")
    rows_a = list(csv.reader(x for x in lines_a if not x.startswith("#")))
    rows_b = list(csv.reader(x for x in lines_b if not x.startswith("#")))
    if len(rows_a) != len(rows_b) or not rows_b or rows_a[0] != rows_b[0]:
        raise ValueError("shape or header")
    differing, identical = [], []
    for col, name in enumerate(rows_b[0]):
        try:
            texts_a = [row[col] for row in rows_a[1:]]
            texts_b = [row[col] for row in rows_b[1:]]
        except IndexError:
            differing.append((name, math.inf))
            continue
        if texts_a == texts_b:
            identical.append(name)
            continue
        try:
            xa, xb = [float(x) for x in texts_a], [float(x) for x in texts_b]
        except ValueError:
            differing.append((name, math.inf))
            continue
        diff = max(abs(x - y) for x, y in zip(xa, xb))
        scale = max((abs(y) for y in xb), default=0.0)
        differing.append((name, 0.0 if diff == 0 else (diff / scale if scale > 0 else math.inf)))
    return differing, identical


def _csv_deviation(a: bytes, b: bytes) -> tuple[float, str]:
    """Over the columns of two CSV files whose ``#`` comment lines agree."""
    try:
        differing, _ = _csv_columns(a, b)
    except ValueError as err:
        return math.inf, str(err)
    worst = (0.0, "")
    for name, dev in differing:
        if not dev <= worst[0]:
            worst = (dev, f"column {name}")
    return worst


def _json_deviation(a, b, path: str = "") -> tuple[float, str]:
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        if a == b:
            return 0.0, path
        return (abs(a - b) / abs(b) if b != 0 else math.inf), path
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        pairs = [(a[k], b[k], f"{path}.{k}") for k in b]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return (0.0 if a == b else math.inf), path
    worst = (0.0, path)
    for x, y, where in pairs:
        dev = _json_deviation(x, y, where)
        if not dev[0] <= worst[0]:
            worst = dev
    return worst


def _checkpoint_deviation(a: bytes, b: bytes) -> tuple[float, str]:
    """Over two MPF1 checkpoints whose headers are equal: each field's
    max|a - b| / max|b|, the largest of them, and how many payload floats
    differ only in the sign of zero."""
    import numpy as np

    head = _CHECKPOINT.size
    if len(b) < head or a[:head] != b[:head] or b[:4] != b"MPF1":
        return math.inf, "header"
    n = _CHECKPOINT.unpack(b[:head])[2]
    if not len(a) == len(b) == head + 3 * n * n * 16:
        return math.inf, "payload size"
    xa, xb = (np.frombuffer(x, dtype="<f8", offset=head).reshape(len(_FIELDS), -1)
              for x in (a, b))
    zeros = int(np.count_nonzero((xa == 0) & (xb == 0) & (np.signbit(xa) != np.signbit(xb))))
    worst = (0.0, "")
    for field, fa, fb in zip(_FIELDS, xa, xb):
        diff, scale = float(np.max(np.abs(fa - fb))), float(np.max(np.abs(fb)))
        dev = 0.0 if diff == 0 else (diff / scale if scale > 0 else math.inf)
        if not dev <= worst[0]:
            worst = (dev, f"field {field}, ")
    return worst[0], f"{worst[1]}{zeros} floats differ only in the sign of zero"


def _deviation(name: str, a: bytes | None, b: bytes | None) -> tuple[float, str]:
    """Largest normalized deviation of file ``a`` from file ``b``, and where."""
    if a is None or b is None:
        return math.inf, "missing"
    try:
        if name.endswith(".csv"):
            return _csv_deviation(a, b)
        if name.endswith(".json"):
            return _json_deviation(json.loads(a), json.loads(b))
        if name.endswith(".ckpt"):
            return _checkpoint_deviation(a, b)
    except (UnicodeDecodeError, json.JSONDecodeError, csv.Error):
        pass
    return math.inf, "bytes"


def _report(name: str, a: bytes | None, b: bytes | None) -> list[str]:
    """The lines printed for a file that differs, ``a`` the change's and
    ``b`` the parent's: its largest normalized deviation and, for a CSV
    file, every column that differs with its deviation and whether the
    other columns are byte-identical."""
    dev, where = _deviation(name, a, b)
    lines = [f"  differs: {name} (largest normalized deviation {dev:.2e}, {where})"]
    if name.endswith(".csv") and a is not None and b is not None:
        try:
            differing, identical = _csv_columns(a, b)
        except (ValueError, UnicodeDecodeError, csv.Error):
            return lines
        lines += [f"    column {column}: {dev:.2e}" for column, dev in differing]
        lines.append(f"    the other {len(identical)} columns are byte-identical"
                     + (f": {', '.join(identical)}" if identical else ""))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0].strip())
    parser.add_argument("parent", type=Path, metavar="PARENT_SRC")
    parser.add_argument("change", type=Path, metavar="CHANGE_SRC")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "src" / "micropolar").is_dir():
            parser.error(f"{root} holds no src/micropolar")

    print(host())
    compared = differing = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for workload in WORKLOADS.values():
            for part in workload.parts:
                files, codes = {}, {}
                for side, root in roots.items():
                    workdir = Path(tmp) / workload.name / part.name / side
                    codes[side] = _run_part(root, workdir, part, args.seed)
                    files[side] = _files(workdir)
                names = sorted(set(files["parent"]) | set(files["change"]))
                bad = [name for name in names
                       if files["parent"].get(name) != files["change"].get(name)]
                if codes["parent"] != codes["change"]:
                    bad.append("exit codes")
                compared += len(names)
                differing += len(bad)
                print(f"{workload.name}/{part.name} seed {args.seed}: {len(names)} files; "
                      f"exit codes parent {codes['parent']}, change {codes['change']}")
                for name in bad:
                    if name == "exit codes":
                        print(f"  differs: {name}")
                        continue
                    print("\n".join(_report(name, files["change"].get(name),
                                             files["parent"].get(name))))
    print(f"{compared} files compared, {differing} differences")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
