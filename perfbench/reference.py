"""
Reference check for workload outputs, and the tools that made its data.

Every iteration's outputs are reduced to a digest: CSV series (at most
``ROWS`` rows of each column, evenly spaced, last row included), final
energy, sync ``converged`` and ``effective_m``, Lyapunov exponents, audit
``violated`` flags and bound values.  A seed with a stored reference
(``reference/<workload>.json``) is compared against it:

- booleans, integers, strings and None must match exactly;
- a float must satisfy |a - b| <= tol * |b|;
- a series must satisfy max|a - b| <= tol * max|b| (its column scale).

``tol`` comes from ``reference/tolerance.json``: for each digest key, 100
times the largest deviation that a 1e-15 relative perturbation of the
initial state produced over the same horizon, on the derivation seeds,
and never below 1e-12.  A key whose perturbed deviation exceeded 1e-6 sits
at the roundoff floor (a twin gap that has synchronized, for instance);
it is only required to be finite.

A seed without a stored reference falls back to invariants: every command
exits 0, every digest value is finite, and ``checkpoint-info`` reports
``divergence_free`` for each checkpoint written.

Regenerate the data (both must be rerun whenever the outputs change on
purpose, and the change recorded):

    python3 perfbench/reference.py record --seeds 0-23
    python3 perfbench/reference.py derive --seeds 0-2
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "reference"
ROWS = 11
PERTURBATION = 1e-15
TOL_FACTOR = 100.0
TOL_FLOOR = 1e-12
ROUNDOFF_SPREAD = 1e-6


# ---------------------------------------------------------------------------
# Digest
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> dict[str, list[float]]:
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    keep = sorted({round(i * (len(rows) - 1) / (ROWS - 1)) for i in range(ROWS)}) \
        if len(rows) > ROWS else range(len(rows))
    return {f"series.{name}": [rows[i][j] for i in keep] for j, name in enumerate(header)}


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _pick(data: dict, keys) -> dict:
    return {k: data.get(k) for k in keys}


def _digest_simulate(out: Path) -> dict:
    summary = _read_json(out / "summary.json")
    return {**_read_csv(out / "series.csv"),
            **_pick(summary, ("final_energy", "final_time", "steps"))}


def _digest_verify(out: Path) -> dict:
    digest = _read_csv(out / "series.csv")
    for check in _read_json(out / "checks.json")["checks"]:
        for key in ("left", "margin", "violated"):
            digest[f"{check['check_name']}.{key}"] = check[key]
    return digest


def _digest_bounds(out: Path) -> dict:
    return _pick(_read_json(out / "bounds.json"),
                 ("F_tilde", "F_tilde_minus1", "modes_closed_form", "modes_exact_eigenvalues",
                  "nodes", "nodes_log10", "attractor_hausdorff", "attractor_fractal"))


def _digest_sync_modes(out: Path) -> dict:
    return {**_read_csv(out / "sync_modes.csv"),
            **_pick(_read_json(out / "summary.json"),
                    ("m", "effective_m", "converged", "rate", "threshold_time", "min_relative"))}


def _digest_sync_nodes(out: Path) -> dict:
    return {**_read_csv(out / "sync_nodes.csv"),
            **_pick(_read_json(out / "summary.json"),
                    ("num_nodes", "mu", "converged", "diverged", "rate", "threshold_time",
                     "min_relative"))}


def _digest_lyapunov(out: Path) -> dict:
    return {**_read_csv(out / "qn_series.csv"),
            **_pick(_read_json(out / "lyapunov.json"),
                    ("exponents", "partial_sums", "kaplan_yorke", "ky_undetermined", "converged",
                     "kappa1", "kappa2", "bound_N", "bound_2N", "C0_fitted"))}


_DIGESTERS = {
    "simulate": _digest_simulate,
    "verify-estimates": _digest_verify,
    "bounds": _digest_bounds,
    "sync-modes": _digest_sync_modes,
    "sync-nodes": _digest_sync_nodes,
    "lyapunov": _digest_lyapunov,
}


def digest(workload, workdir: Path) -> dict[str, dict | None]:
    """Command label -> digest of its outputs (None if they cannot be read)."""
    out = {}
    for command in workload.commands:
        try:
            out[command.label] = _DIGESTERS[command.subcommand](workdir / command.label)
        except (OSError, ValueError, KeyError, IndexError):
            out[command.label] = None
    return out


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _finite(value) -> bool:
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return not isinstance(value, str)  # non-finite floats are written as strings


def deviation(a, b) -> float:
    """Normalized distance between two digest values; inf if incomparable."""
    if isinstance(b, list):
        if not isinstance(a, list) or len(a) != len(b):
            return math.inf
        scale = max((abs(v) for v in b), default=0.0)
        worst = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
        return worst / scale if scale > 0 else (0.0 if worst == 0 else math.inf)
    if isinstance(b, bool) or not isinstance(b, float) or not isinstance(a, float):
        return 0.0 if a == b and type(a) is type(b) else math.inf
    if a == b:
        return 0.0
    return abs(a - b) / abs(b) if b != 0 else math.inf


def load_tolerances() -> dict:
    path = DATA / "tolerance.json"
    return json.loads(path.read_text())["tolerance"] if path.exists() else {}


def load_reference(workload: str) -> dict:
    path = DATA / f"{workload}.json"
    return json.loads(path.read_text())["seeds"] if path.exists() else {}


def compare(found: dict, expected: dict, tolerances: dict) -> list[str]:
    """Mismatches of one command's digest against its reference."""
    problems = []
    for key, ref in expected.items():
        if key not in found:
            problems.append(f"{key}: missing")
            continue
        tol = tolerances.get(key, TOL_FLOOR)
        if tol is None:  # roundoff-dominated: finiteness only
            if not _finite(found[key]):
                problems.append(f"{key}: not finite")
            continue
        dev = deviation(found[key], ref)
        if dev > tol:
            problems.append(f"{key}: deviation {dev:.3g} > tolerance {tol:.3g}")
    return problems


def invariants(found: dict) -> list[str]:
    return [f"{key}: not finite" for key, value in found.items() if not _finite(value)]


class Checker:
    """Checks each iteration's outputs for one workload and seed."""

    def __init__(self, workload, seed: int, smoke: bool):
        self.workload = workload
        stored = {} if smoke else load_reference(workload.name)
        self.expected = stored.get(str(seed))
        self.tolerances = load_tolerances().get(workload.name, {})

    @property
    def mode(self) -> str:
        return "stored reference" if self.expected is not None else "invariants"

    def check(self, workdir: Path, runs, checkpoint_info=None) -> dict[str, list[str]]:
        """Command label -> problems (empty when the command passed).

        ``checkpoint_info(path)`` returns the checkpoint-info report or None;
        when given, every checkpoint the workload writes is inspected."""
        digests = digest(self.workload, workdir)
        problems = {}
        for run in runs:
            found = digests[run.label]
            if run.exit_code != 0:
                problems[run.label] = [f"exit code {run.exit_code}"]
            elif found is None:
                problems[run.label] = ["outputs missing or unreadable"]
            elif self.expected is not None:
                problems[run.label] = compare(found, self.expected[run.label],
                                              self.tolerances.get(run.label, {}))
            else:
                problems[run.label] = invariants(found)
        if checkpoint_info is not None:
            for label in self.workload.checkpoints:
                info = checkpoint_info(workdir / label / "final.ckpt")
                if info is None or info.get("divergence_free") is not True:
                    problems[label].append(f"checkpoint-info: {info}")
        return problems


# ---------------------------------------------------------------------------
# Making the reference data
# ---------------------------------------------------------------------------

def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _one_line_per_seed(seeds: dict) -> str:
    lines = [f"{json.dumps(seed)}: {json.dumps(d, separators=(',', ':'))}"
             for seed, d in seeds.items()]
    return ('{"rows_per_series": %d, "seeds": {\n' % ROWS) + ",\n".join(lines) + "\n}}\n"


def _record(args, root: Path) -> None:
    from harness import prepare, run_iteration
    from workloads import WORKLOADS

    DATA.mkdir(exist_ok=True)
    workdir = root / ".perfbench-work" / f"record-{os.getpid()}"
    try:
        for name, workload in WORKLOADS.items():
            seeds = {}
            for seed in _seeds(args.seeds):
                prepare(workdir, workload, seed, smoke=False)
                _, runs = run_iteration(root, workdir, workload)
                if any(r.exit_code != 0 for r in runs):
                    raise SystemExit(f"{name} seed {seed}: a command failed")
                seeds[str(seed)] = digest(workload, workdir)
                print(f"recorded {name} seed {seed}", file=sys.stderr)
            (DATA / f"{name}.json").write_text(_one_line_per_seed(seeds))
    finally:
        if workdir.exists():
            shutil.rmtree(workdir)


def _run_in_process(workload, workdir: Path, seed: int, perturb: bool) -> dict:
    """Run the workload's commands through micropolar.cli.main in this
    process, optionally scaling the initial u by (1 + eps) and omega by
    (1 - eps) with eps = PERTURBATION."""
    from harness import prepare
    from micropolar import cli
    from micropolar.dynamics import State

    prepare(workdir, workload, seed, smoke=False)
    original = cli.build_initial

    def perturbed(config, grid):
        state = original(config, grid)
        if "checkpoint" in config.get("initial", {}):
            return state  # already carries the perturbation of the run it resumes
        return State(state.u * (1.0 + PERTURBATION), state.omega * (1.0 - PERTURBATION), state.t)

    cwd = os.getcwd()
    os.chdir(workdir)
    cli.build_initial = perturbed if perturb else original
    try:
        for command in workload.commands:
            if cli.main(command.argv()) != 0:
                raise SystemExit(f"{workload.name} seed {seed}: {command.label} failed")
    finally:
        cli.build_initial = original
        os.chdir(cwd)
    result = digest(workload, workdir)
    shutil.rmtree(workdir)
    return result


def _derive(args, root: Path) -> None:
    from workloads import WORKLOADS

    sys.path.insert(0, str(root / "src"))
    workdir = root / ".perfbench-work" / f"derive-{os.getpid()}"
    spread: dict = {}
    for name, workload in WORKLOADS.items():
        for seed in _seeds(args.seeds):
            base = _run_in_process(workload, workdir, seed, perturb=False)
            moved = _run_in_process(workload, workdir, seed, perturb=True)
            for label, keys in base.items():
                for key, value in keys.items():
                    slot = spread.setdefault(name, {}).setdefault(label, {})
                    slot[key] = max(slot.get(key, 0.0), deviation(moved[label][key], value))
            print(f"derived {name} seed {seed}", file=sys.stderr)
    tolerance = {
        name: {label: {key: (None if dev > ROUNDOFF_SPREAD else max(TOL_FACTOR * dev, TOL_FLOOR))
                       for key, dev in keys.items()}
               for label, keys in labels.items()}
        for name, labels in spread.items()
    }
    payload = {
        "derivation": (
            f"Each key's tolerance is {TOL_FACTOR:g} x the largest normalized deviation "
            f"that scaling the initial u by (1+{PERTURBATION:g}) and omega by "
            f"(1-{PERTURBATION:g}) produced over the workload's own horizon, on seeds "
            f"{args.seeds}, floored at {TOL_FLOOR:g}. null: the perturbed deviation exceeded "
            f"{ROUNDOFF_SPREAD:g} (roundoff floor), so only finiteness is checked."),
        "perturbed_spread": spread,
        "tolerance": tolerance,
    }
    DATA.mkdir(exist_ok=True)
    (DATA / "tolerance.json").write_text(json.dumps(payload, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("action", choices=("record", "derive"))
    parser.add_argument("--seeds", default="0-23", help="inclusive range, e.g. 0-23")
    args = parser.parse_args()
    root = HERE.parent
    if args.action == "record":
        _record(args, root)
    else:
        _derive(args, root)


if __name__ == "__main__":
    main()
