"""
Runs one workload iteration: its commands in order, each in a fresh child
process (closed loop, one client, one command at a time).

The parent times each command from just before the spawn to the reaped
exit, less the child's speed probe, and reads the child's
peak RSS from ``wait4``.  Child and parent read
the same CLOCK_MONOTONIC, so the child's first-step reading gives the
set-up time from the spawn.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Workload

HERE = Path(__file__).resolve().parent
# A command that runs longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 120.0
THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_CAP_VARS:
        env[var] = str(nproc())
    return env


@dataclass
class CommandRun:
    label: str
    exit_code: int
    wall_s: float
    setup_s: float | None
    rss_mib: float
    child: dict | None
    spans: Path | None
    probe_s: float | None


def prepare(workdir: Path, workload: Workload, seed: int, smoke: bool) -> dict[str, dict]:
    """Write the seed's configs into a fresh work directory."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    configs = workload.configs(seed, smoke)
    for name, cfg in configs.items():
        (workdir / name).write_text(json.dumps(cfg, indent=1))
    return configs


def _spawn(argv: list[str], env: dict, cwd: Path) -> tuple[int, float, float, float]:
    """Run argv to completion; (exit code, wall seconds, peak RSS MiB, spawn time)."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.clock_gettime(time.CLOCK_MONOTONIC) - start
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, start


def run_command(root: Path, workdir: Path, command, trace: bool, run_id: str) -> CommandRun:
    result_path = workdir / f".{command.label}.result.json"
    spans_path = workdir / f".{command.label}.spans.json" if trace else None
    argv = [sys.executable, str(HERE / "child.py"), "--result", str(result_path)]
    if trace:
        argv += ["--trace", str(spans_path), "--run-id", run_id]
    argv += ["--", *command.argv()]
    code, wall, rss, spawned = _spawn(argv, child_env(root), workdir)
    child = json.loads(result_path.read_text()) if result_path.exists() else None
    setup = probe_s = None
    if child is not None:
        end = child["first_step"] or child["last_build_end"] or child["returned"]
        setup = end - spawned
        probe_s = child["probe_s"]
        wall -= probe_s
    return CommandRun(command.label, code, wall, setup, rss, child,
                      spans_path if spans_path is not None and spans_path.exists() else None,
                      probe_s)


def run_iteration(root: Path, workdir: Path, workload: Workload, trace: bool = False,
                  run_id: str = "") -> tuple[float, list[CommandRun]]:
    """Run every command of the workload once; (summed command wall seconds,
    per command)."""
    for command in workload.commands:
        for stale in workdir.glob(f".{command.label}.*"):
            stale.unlink()
        if (workdir / command.label).exists():
            shutil.rmtree(workdir / command.label)
    runs = [run_command(root, workdir, c, trace, f"{run_id}/{c.label}")
            for c in workload.commands]
    return sum(r.wall_s for r in runs), runs


def checkpoint_info(root: Path, path: Path) -> dict | None:
    """Output of ``micropolar checkpoint-info``, or None if it failed."""
    proc = subprocess.run([sys.executable, "-m", "micropolar.cli", "checkpoint-info", str(path)],
                          env=child_env(root), capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)
