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

Prints one line per part and the differing files, and exits 1 when an
exit code or a file differs, 0 otherwise.  For each differing CSV or JSON
file it also prints the largest normalized deviation and where it is:
over the CSV columns, max|a - b| / max|b| of each column; over the JSON
numbers, |a - b| / |b| of each value (a zero b counts a difference as
infinite).  Any other difference, in a string, a structure or a binary
file, reads as infinite.  So a change that moves bits on purpose can
state its budget from one command.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


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


def _csv_deviation(a: bytes, b: bytes) -> tuple[float, str]:
    """Over the columns of two CSV files whose ``#`` comment lines agree."""
    lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    if [x for x in lines_a if x.startswith("#")] != [x for x in lines_b if x.startswith("#")]:
        return math.inf, "comment lines"
    rows_a = list(csv.reader(x for x in lines_a if not x.startswith("#")))
    rows_b = list(csv.reader(x for x in lines_b if not x.startswith("#")))
    if len(rows_a) != len(rows_b) or not rows_b or rows_a[0] != rows_b[0]:
        return math.inf, "shape or header"
    worst = (0.0, "")
    for col, name in enumerate(rows_b[0]):
        try:
            xa = [float(row[col]) for row in rows_a[1:]]
            xb = [float(row[col]) for row in rows_b[1:]]
        except (ValueError, IndexError):
            return math.inf, f"column {name}"
        diff = max((abs(x - y) for x, y in zip(xa, xb)), default=0.0)
        scale = max((abs(y) for y in xb), default=0.0)
        dev = 0.0 if diff == 0 else (diff / scale if scale > 0 else math.inf)
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


def _deviation(name: str, a: bytes | None, b: bytes | None) -> tuple[float, str]:
    """Largest normalized deviation of file ``a`` from file ``b``, and where."""
    if a is None or b is None:
        return math.inf, "missing"
    try:
        if name.endswith(".csv"):
            return _csv_deviation(a, b)
        if name.endswith(".json"):
            return _json_deviation(json.loads(a), json.loads(b))
    except (UnicodeDecodeError, json.JSONDecodeError, csv.Error):
        pass
    return math.inf, "bytes"


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
                    dev, where = _deviation(name, files["change"].get(name),
                                            files["parent"].get(name))
                    print(f"  differs: {name} (largest normalized deviation {dev:.2e}, {where})")
    print(f"{compared} files compared, {differing} differences")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
