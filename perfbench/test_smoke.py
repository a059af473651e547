"""
Smoke tests of the benchmark itself, on shortened configs (``--smoke``).

    python3 -m pytest -q perfbench/test_smoke.py

They check that one command prints every metric by name with its unit,
that every workload runs, that the reference check rejects a deliberately
perturbed output, that traced counts repeat exactly, and that the span
recorder computes self time and survives a missing entry point.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from harness import prepare, run_iteration  # noqa: E402
from reference import Checker, compare, load_reference, load_tolerances  # noqa: E402
from spans import SpanRecorder, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_metric_with_unit(trace, key):
    proc = bench("large-n", trace)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"# {name} = ") and f" {unit}" in line
                   for line in proc.stdout.splitlines()), name
    if trace == 0:
        assert any(line.startswith("# speed probe: median ") for line in proc.stdout.splitlines())
    env = json.loads(proc.stdout.splitlines()[0])["environment"]
    assert {"nproc", "cpu_model", "caches", "python", "numpy", "fft_backend",
            "child_thread_caps"} <= set(env)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_runs(workload):
    result = result_of(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    first, second = (result_of(bench("small-n", 1)) for _ in range(2))
    for name in layers.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["lyapunov.tangent_calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("small-n", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _perturb_last_row(csv: Path, column: str, factor: float) -> None:
    lines = csv.read_text().splitlines()
    j = lines[1].split(",").index(column)
    row = lines[-1].split(",")
    row[j] = repr(float(row[j]) * factor)
    lines[-1] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n")


def test_reference_check_rejects_perturbed_output(tmp_path):
    workload = WORKLOADS["small-n"]
    prepare(tmp_path, workload, seed=5, smoke=True)
    _, runs = run_iteration(ROOT, tmp_path, workload)
    checker = Checker(workload, seed=5, smoke=True)
    passed = {"simulate": [], "lyapunov": []}
    assert checker.check(tmp_path, runs) == passed

    # the fresh outputs become the reference; a 1e-6 change must be caught
    from reference import digest

    checker.expected = digest(workload, tmp_path)
    checker.tolerances = load_tolerances()["small-n"]
    assert checker.check(tmp_path, runs) == passed
    _perturb_last_row(tmp_path / "simulate" / "series.csv", "u_l2_sq", 1.0 + 1e-6)
    assert checker.check(tmp_path, runs)["simulate"]

    # invariants reject a non-finite output
    checker.expected = None
    _perturb_last_row(tmp_path / "simulate" / "series.csv", "u_l2_sq", float("nan"))
    assert checker.check(tmp_path, runs)["simulate"]


def test_stored_reference_rejects_perturbed_values():
    for name in WORKLOADS:
        stored = load_reference(name)
        tolerances = load_tolerances()[name]
        assert stored, name
        seed = sorted(stored, key=int)[0]
        for label, expected in stored[seed].items():
            assert compare(expected, expected, tolerances[label]) == []
            for key, value in expected.items():
                if not tolerances[label].get(key) or not isinstance(value, (float, list)):
                    continue
                bumped = ([v * (1 + 1e-6) for v in value] if isinstance(value, list)
                          else value * (1 + 1e-6))
                if bumped == value:
                    continue  # all zero
                moved = dict(expected, **{key: bumped})
                assert compare(moved, expected, tolerances[label]), (name, label, key)


def test_span_self_time_and_absent_entry_point(monkeypatch):
    rec = SpanRecorder("test")
    inner = rec.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    rec.wrap("outer", outer_body)()
    spans = {"names": rec.names, "name_idx": rec.name_idx, "parent": rec.parent,
             "start": rec.start, "end": rec.end}
    summary = summarize(spans)
    assert summary["inner"]["calls"] == 2
    outer = summary["outer"]
    assert outer["total_s"] >= 0.05
    assert abs(outer["self_s"] - (outer["total_s"] - summary["inner"]["total_s"])) < 1e-9

    sys.path.insert(0, str(ROOT / "src"))
    monkeypatch.setattr(layers, "ENTRY_POINTS",
                        [("x.gone", "micropolar.dynamics:_no_such_function"),
                         ("x.gone", "micropolar.no_such_module:f")])
    monkeypatch.setattr(layers, "OBSERVER_FACTORY", "micropolar.dynamics:_no_factory")
    monkeypatch.setattr(layers, "STEPPER_INIT", "micropolar.dynamics:_Stepper._no_init")
    rec = SpanRecorder("test")
    layers.install(rec)
    assert rec.absent == ["micropolar.dynamics:_no_such_function", "micropolar.no_such_module:f",
                          "micropolar.dynamics:_no_factory",
                          "micropolar.dynamics:_Stepper._no_init(extra)"]
