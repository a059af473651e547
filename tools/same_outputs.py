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
exit code or a file differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
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
                    print(f"  differs: {name}")
    print(f"{compared} files compared, {differing} differences")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
