"""
Benchmark of the micropolar CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/micropolar`` must exist; no
install is needed).  One closed-loop client issues the workload's commands
one at a time, each in a fresh child process with BLAS/OpenMP threads
capped at nproc, and repeats the whole workload until ``--seconds`` would
be exceeded (at least once).  Every iteration's outputs are checked against
the stored reference for the seed, or against invariants when the seed has
none (reference.py).

Each child runs a fixed host speed probe after its command (probe.py);
its time is not counted in the command's.  Every time metric is the median
over the run's iterations, scaled to the probe's nominal host speed:
durations are multiplied, and rates divided, by nominal / median probe
time of the run.  The unscaled samples are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics of the
traced ones (counts from one iteration, times as medians), the tracing
overhead (the median ratio of traced to untraced iteration wall time) and
each part's wall time and throughput from the untraced iterations.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
workload's error rate.  The lines before it list every metric by name and
unit and record the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from harness import THREAD_CAP_VARS, checkpoint_info, nproc, prepare, run_iteration
from layers import EXACT_COUNTS, METRICS, layer_metrics
from probe import PROBE_NOMINAL_S
from reference import Checker
from spans import load, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PART_METRICS = [f"part.{part.name}.{metric}" for workload in WORKLOADS.values()
                for part in workload.parts for metric in ("wall_s", "steps_per_s")]


def environment() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else ' ' + kind}"] = size
    fft = numpy.fft.fft2.__module__
    if hasattr(numpy.fft, "_pocketfft_umath") or "pocketfft" in fft:
        fft = f"numpy.fft (pocketfft, numpy {numpy.__version__})"
    return {
        "nproc": nproc(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fft_backend": fft,
        "child_thread_caps": {var: str(nproc()) for var in THREAD_CAP_VARS},
    }


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.workdir = ROOT / ".perfbench-work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.configs = prepare(self.workdir, workload, seed, smoke)
        self.field_steps = workload.field_steps(self.configs)
        self.part_steps = {p.name: p.field_steps(self.configs) for p in workload.parts}
        self.checker = Checker(workload, seed, smoke)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.iterations = 0

    def iteration(self, trace: bool):
        run_id = f"{self.workload.name}/{self.seed}/{self.iterations}"
        wall, runs = run_iteration(ROOT, self.workdir, self.workload, trace)
        # checkpoint-info is run once per run, on the first iteration
        info = (lambda path: checkpoint_info(ROOT, path)) if self.iterations == 0 else None
        problems = self.checker.check(self.workdir, runs, info)
        self.attempted += len(runs)
        for label, found in problems.items():
            if found:
                self.failed += 1
                self.problems.extend(f"{label}: {p}" for p in found)
        self.iterations += 1
        return wall, runs

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _spread(values: list[float]) -> str:
    listed = " ".join(f"{v:.4g}" for v in values)
    if len(values) < 2:
        return f"n=1 [{listed}]"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} [{listed}]"


def iteration_times(run: Run, runs) -> dict[str, float]:
    """Times of one iteration, of the whole workload and of each part."""
    by_label = {r.label: r for r in runs}
    times = {}
    for part in run.workload.parts:
        part_runs = [by_label[c.label] for c in part.commands]
        wall = sum(r.wall_s for r in part_runs)
        setup = sum(r.setup_s or 0.0 for r in part_runs)
        times[f"part.{part.name}.wall_s"] = wall
        times[f"part.{part.name}.steps_per_s"] = run.part_steps[part.name] / (wall - setup)
    wall = sum(r.wall_s for r in runs)
    setup = sum(r.setup_s or 0.0 for r in runs)
    times.update(wall_s=wall, setup_s=setup, steps_per_s=run.field_steps / (wall - setup))
    return times


def at_nominal_speed(samples: dict[str, list[float]], probes: list[float]) -> dict[str, float]:
    """Medians of the time samples, scaled to the probe's nominal host speed
    (unscaled when no child lived to run the probe)."""
    factor = PROBE_NOMINAL_S / statistics.median(probes) if probes else 1.0
    return {name: statistics.median(v) / factor if name.endswith("per_s")
            else statistics.median(v) * factor
            for name, v in samples.items()}


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    samples: dict[str, list[float]] = {}
    rss: list[float] = []
    probes: list[float] = []
    start = time.monotonic()
    while True:
        wall, runs = run.iteration(trace=False)
        for name, value in iteration_times(run, runs).items():
            samples.setdefault(name, []).append(value)
        rss.append(max(r.rss_mib for r in runs))
        probes.extend(r.probe_s for r in runs if r.probe_s is not None)
        if time.monotonic() - start + wall > seconds:
            break
    values = at_nominal_speed(samples, probes)
    values["peak_rss_mib"] = statistics.median(rss)
    return values, {"samples": dict(samples, peak_rss_mib=rss), "probes": probes}


def measure_layers(run: Run, seconds: float) -> tuple[dict, dict]:
    traced: list[dict[str, float]] = []
    plain: dict[str, list[float]] = {}
    probes: list[float] = []
    ratios: list[float] = []
    absent: set[str] = set()
    start = time.monotonic()
    while True:
        plain_wall, plain_runs = run.iteration(trace=False)
        for name, value in iteration_times(run, plain_runs).items():
            plain.setdefault(name, []).append(value)
        probes.extend(r.probe_s for r in plain_runs if r.probe_s is not None)
        wall, runs = run.iteration(trace=True)
        ratios.append(wall / plain_wall)
        values = dict.fromkeys(METRICS, 0)
        for r in runs:
            if r.spans is None or r.child is None:
                continue
            spans = load(r.spans)
            absent.update(spans["absent"])
            per_command = layer_metrics(summarize(spans), spans["counters"], r.child)
            for name, value in per_command.items():
                values[name] += value
        traced.append(values)
        if time.monotonic() - start + plain_wall + wall > seconds:
            break
    result = {}
    for name, (unit, _) in METRICS.items():
        series = [v[name] for v in traced]
        if name in EXACT_COUNTS:
            if len(set(series)) > 1:
                run.problems.append(f"{name} differs between traced iterations: {series}")
            result[name] = series[0]
        else:
            result[name] = statistics.median(series)
    result["trace.overhead_ratio"] = statistics.median(ratios)
    # each part's untraced times; parts of other workloads read 0
    result.update(dict.fromkeys(PART_METRICS, 0))
    result.update((k, v) for k, v in at_nominal_speed(plain, probes).items() if k in PART_METRICS)
    return result, {"overhead_ratio": ratios, "absent": sorted(absent)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shortened configs, checked by invariants (for the smoke tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "micropolar" / "cli.py").is_file():
        print(f"error: no micropolar source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in benchmark["per_layer" if args.trace else "end_to_end"]}

    run = Run(WORKLOADS[args.workload], args.seed, args.smoke)
    try:
        if args.trace:
            values, detail = measure_layers(run, args.seconds)
        else:
            values, detail = measure_end_to_end(run, args.seconds)
    finally:
        run.close()

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"environment": environment()}))
    print(f"# workload {args.workload} seed {args.seed}: {run.iterations} iterations, "
          f"{run.field_steps} field-steps per iteration, check against {run.checker.mode}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print("# trace overhead ratios: " + " ".join(f"{r:.4f}" for r in detail["overhead_ratio"]))
        print("# fft_bytes_computed is computed from array sizes (input + output), "
              "not measured; it ignores cache misses")
        if detail["absent"]:
            print("# absent entry points: " + ", ".join(detail["absent"]))
    else:
        for name in [n for n in PART_METRICS if n in values]:
            print(f"# {name} = {values[name]:.6g} (per part)")
        if detail["probes"]:
            print(f"# speed probe: median {statistics.median(detail['probes']):.6g} s, nominal "
                  f"{PROBE_NOMINAL_S:g} s; unscaled samples: {_spread(detail['probes'])}")
        for name, series in detail["samples"].items():
            print(f"#   {name}: median {statistics.median(series):.6g} {_spread(series)}")
    print(f"# error_rate = {run.failed}/{run.attempted}")
    for problem in run.problems:
        print(f"# problem: {problem}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
