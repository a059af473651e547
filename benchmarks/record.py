"""
Per-layer performance point of the micropolar solver, written to
``BENCH_<label>.json`` at the root of this checkout.

    python3 benchmarks/record.py --label LABEL [--src PATH] [--out PATH]

    python3 benchmarks/record.py --label LABEL --merge ROUND.json... [--out PATH]

    python3 benchmarks/record.py --label LABEL --ab OTHER_SRC [--rounds R] [--out PATH]

    python3 benchmarks/record.py ... --e2e SECONDS

``--src`` is the ``src`` directory of the tree to measure (default: this
checkout's).  A point for an earlier commit measures a copy of it, for
example ``git archive COMMIT | tar -x -C DIR`` and ``--src DIR/src``; a
layer that does not exist there is recorded as absent.

Layers, on the README parameters at n = 16, 32, 64, 128 and 256:

- ``advance`` and ``advance_8_pairs``: one ``_Stepper.advance`` call
  without tangent pairs and with 8 (after two warm-up steps);
- ``explicit_terms`` and ``explicit_terms_8_pairs``: one
  ``_explicit_terms`` call of such a stepper, in its workspace, on its
  own planes and its steady forcing's band columns;
- ``rfft_pair``: the kernel's transforms of one member, ``_half_to_phys``
  of 5 band planes and ``_phys_to_half`` of 3 physical planes into
  workspace buffers (the inverse transform's stage too, where the
  workspace has one), after a copy that restores the spectral input (the
  inverse transform's first stage overwrites it above n = 32);
- ``from_half``: one ``_from_half`` record of a stepped state;
- ``record``: one record of the default observer set, amortized over a
  stride-1 in-process ``simulate`` as its time minus that of the same
  steps without records (a fresh stepper and bare ``advance`` calls);
- ``nudge`` (at n = 64 only): one call of ``run_node_sync``'s nudging
  term, with 1024 nodes on the lattice (``aligned``) and 900 off it
  (``unaligned``), taken from a short twin run;
- ``reorth`` (at n = 32 only): one re-orthonormalization of 8 and of 64
  tangent pairs, ``lyapunov._mgs`` on the frame of a Benettin run after
  one block (a Householder QR of band planes; before, modified
  Gram-Schmidt over the full spectra that the block rebuilt for it);
- ``trace_sample`` (at n = 32 only): one trace sample of 8 pairs at a
  block boundary, as the run takes it (from the tangent terms of the
  block's first step; before, with its own kernel call);
- ``setup``: a command's set-up, as ``build`` (``make_grid``,
  ``make_forcing`` and ``random_state`` of a lattice that nothing else
  holds) and ``read_checkpoint`` (of such a state, with its grid held,
  as a resumed run holds its configured grid).
- ``command_rss`` (at n = 16, 32, 64, 128 and 256): the peak RSS
  (``ru_maxrss``, MiB) and wall time of fresh ``python -m micropolar.cli``
  processes on perfbench's workload configs for seed 5 (``RSS_COMMANDS``):
  ``simulate`` at n = 16 (the ``dense-n16`` part's, small-n's first
  command), ``simulate`` and ``verify-estimates`` (resumed from its
  checkpoint) at n = 64, 128 and 256, ``bounds`` at n = 128,
  ``sync-modes`` and ``sync-nodes`` at n = 64 and ``lyapunov`` at n = 32
  (so every command of ``large-n`` shows its peak at its own n); the
  median and all values of up to 3 runs each.

Each layer reports the median and interquartile range of single-call
times in microseconds, and, from a separate run under ``tracemalloc``
(after a first pass that fills the allocators' caches), the traced bytes
per call (net growth over the calls, divided by their count) and the
peak of traced memory above the level before the first call.  ``record``
reports the median and interquartile range over 15 pairs of runs (which
run goes first alternates), and the traced peaks of one ``simulate`` and
of its bare steps.
``simulate_stride10`` reports the minor page faults (``ru_minflt``) per
step of an in-process ``simulate`` at stride 10, after a warm-up run.
Faults follow the allocator's heap layout, so they are an observation,
not a target.  ``machine`` records nproc (the CPUs this process may run
on), the Python and numpy versions and the median of 5 runs of the
perfbench host-speed probe.

A single run's medians move by tens of percent with the load of a shared
host.  ``--merge`` writes one point from several runs (rounds) of the
same tree, every number the median over the rounds.

``--ab OTHER_SRC`` writes a paired point of this tree (``--src``) against
another: R rounds (``--rounds``, default 10) of each tree's layers, each
round a fresh process running this recorder, in alternating order (A B,
B A, A B, ...); ``ab`` names each tree by the directory of its checkout.
For each layer and n it holds both trees' medians over
the rounds (``this`` and ``other``, as ``--merge`` takes them) and, for
each time, the ratio this / other of the two runs of a round: its
median, interquartile range and ``wins`` (rounds with a ratio below 1)
out of ``pairs``.  ``--sizes`` and ``--calls`` narrow any run to some n
and a fixed number of calls per layer.  Paired, ``command_rss`` also
holds per command ``rss_difference_mib``, the difference this - other of
each round's peak RSS: its median, interquartile range and ``wins``
(rounds where this is lower).

``--e2e SECONDS`` adds ``e2e``: the end-to-end lines of
``perfbench/run.py --trace 0 --seconds SECONDS`` on ``large-n`` and
``small-n`` (each line's metrics, counts and unscaled samples), run by
each tree's own perfbench from a temporary copy, ``--rounds`` rounds on
seeds 0, 1, ..., the trees alternating as above; with ``--ab``, ``pairs``
holds each metric's ratio this / other with its wins (see ``_e2e``).  A
tree without perfbench is recorded as absent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (16, 32, 64, 128, 256)
# calls per timed layer at each n, so that every layer takes about a second
CALLS = {16: 400, 32: 200, 64: 100, 128: 40, 256: 15}
PAIRS = 8


def _quartiles(samples: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(samples, n=4)) if len(samples) > 1 else (samples[0],) * 3


def _summary(samples: list[float]) -> dict:
    q1, median, q3 = _quartiles(samples)
    return {"median_us": median * 1e6, "iqr_us": (q3 - q1) * 1e6, "calls": len(samples)}


def _timed(call, count: int) -> list[float]:
    times = []
    for _ in range(count):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return times


def _traced(call, count: int) -> dict:
    tracemalloc.start()
    try:
        # a first pass fills numpy's and Python's small-block caches, which
        # would otherwise read as growth
        for _ in range(count):
            call()
        before = tracemalloc.get_traced_memory()[0]
        # the int object that holds `before` is itself traced
        before += tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        for _ in range(count):
            call()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"traced_bytes_per_call": (after - before) / count,
            "traced_peak_bytes": peak - before}


def _setup(n: int):
    from micropolar.dynamics import Params, make_forcing, random_state
    from micropolar.spectral import make_grid

    grid = make_grid(n, 6.283185307179586)
    params = Params(0.15, 0.075, 0.15)
    forcing = make_forcing(grid, "two_scale", 0.008, 0.002, mode_lo=9, mode_hi=25, seed=1)
    return grid, params, forcing, random_state(grid, 2, 0.15, 0.05)


class _Loop:
    """A stepper and its planes, advanced one call at a time."""

    def __init__(self, n: int, pairs: int):
        from micropolar.dynamics import _Stepper, _to_half

        self.grid, params, forcing, state = _setup(n)
        self.stepper = _Stepper(self.grid, params, forcing, dt=0.01)
        self.planes = list(_to_half(state))
        if pairs:
            from micropolar.lyapunov import random_tangent_pairs
            self.planes += list(random_tangent_pairs(self.grid, pairs, seed=3))
        self.t = 0.0
        for _ in range(2):
            self.step()

    def step(self) -> None:
        U, W, *VZ = self.planes
        self.planes = list(self.stepper.advance(U, W, self.t, *VZ))
        self.t += 0.01


def _advance(n: int, calls: int, pairs: int) -> dict:
    loop = _Loop(n, pairs)
    count = max(min(10, calls), calls // (1 + pairs // 2))
    return {**_summary(_timed(loop.step, count)), **_traced(loop.step, count)}


def _explicit_terms(n: int, calls: int, pairs: int) -> dict:
    from micropolar.dynamics import _explicit_terms as explicit_terms

    loop = _Loop(n, pairs)
    stepper = loop.stepper
    U, W, *VZ = loop.planes
    VZ = dict(zip("VZ", VZ))
    f_hat, g_hat = stepper.band_forcing

    def terms():
        explicit_terms(loop.grid, stepper.params, U, W, f_hat, g_hat, t=loop.t,
                       work=stepper.work, **VZ)

    count = max(min(10, calls), calls // (1 + pairs // 2))
    return {**_summary(_timed(terms, count)), **_traced(terms, count)}


def _rfft_pair(n: int, calls: int) -> dict:
    import numpy as np

    from micropolar.dynamics import _Workspace
    from micropolar.spectral import _half_to_phys, _phys_to_half

    loop = _Loop(n, 0)
    work = _Workspace(loop.grid, 1)
    m = loop.grid.kcut + 1
    U, W = loop.planes
    spectra = np.stack([U[0], U[1], W, U[0], W])[:, None]
    # as the kernel passes it, where the workspace has one
    stage = {} if getattr(work, "stage", None) is None else {"stage": work.stage}

    def pair():
        np.copyto(work.spec_in, spectra)
        _half_to_phys(work.spec_in, out=work.phys, **stage)
        _phys_to_half(work.phys[2:], m, out=work.E, scratch=work.rfft_out)

    return {**_summary(_timed(pair, calls)), **_traced(pair, calls)}


def _from_half(n: int, calls: int) -> dict:
    from micropolar.dynamics import _from_half as from_half

    loop = _Loop(n, 0)
    U, W = loop.planes

    def record():
        from_half(loop.grid, U, W, loop.t)

    return {**_summary(_timed(record, calls)), **_traced(record, calls)}


def _traced_peak(call) -> int:
    """Peak of traced memory during ``call()`` above the level before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _record(n: int, calls: int) -> dict:
    from micropolar.dynamics import _Stepper, _to_half, simulate

    grid, params, forcing, state = _setup(n)
    steps = 2 * calls

    def recorded():
        simulate(state, params, forcing, 0.01 * steps, 0.01, stride=1)

    def bare():
        stepper = _Stepper(grid, params, forcing, 0.01)
        U, W = _to_half(state)
        for i in range(steps):
            U, W = stepper.advance(U, W, 0.01 * i)

    recorded(), bare()  # warm-up
    took = {recorded: [], bare: []}
    for i in range(15):
        for run in ((recorded, bare), (bare, recorded))[i % 2]:
            took[run] += _timed(run, 1)
    per_record = [(a - b) / (steps + 1) for a, b in zip(took[recorded], took[bare])]
    return {**_summary(per_record), "steps": steps,
            "traced_peak_bytes": _traced_peak(recorded),
            "bare_traced_peak_bytes": _traced_peak(bare)}


def _nudge(n: int, calls: int) -> dict:
    """The nudging term as ``run_node_sync`` hands it to its stepper: caught
    from a three-step twin run, then called on band planes."""
    from micropolar.assimilation import SyncConfig, run_node_sync
    from micropolar.dynamics import _Stepper, _to_half, random_state
    from micropolar.spectral import make_node_set

    grid, params, forcing, state = _setup(n)
    perturbed = random_state(grid, 3, 0.15, 0.05)
    m = grid.kcut + 1
    U, W = (x[..., :m].copy() for x in _to_half(perturbed))
    config = SyncConfig(params, state, perturbed, forcing, forcing, t_end=0.03, dt=0.01)
    result = {}
    # 1024 nodes at n = 64 sit on the lattice (side n / 2), 900 do not
    for name, side in (("aligned", n // 2), ("unaligned", n // 2 - 2)):
        nodes = make_node_set(grid, side=side)
        assert nodes.aligned == (name == "aligned")
        caught = []
        init = _Stepper.__init__

        def catch(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.extra is not None:
                caught.append(self.extra)

        _Stepper.__init__ = catch
        try:
            run_node_sync(config, nodes, mu=1.0)
        finally:
            _Stepper.__init__ = init
        nudge = caught[0]

        def term():
            nudge(0.0, U, W)

        count = max(3, calls // 4)
        result[name] = {"nodes": nodes.count, **_summary(_timed(term, count)),
                        **_traced(term, count)}
    return result


def _tangent_run(n: int, pairs: int):
    """A Benettin run of ``pairs`` tangent pairs after one block."""
    from micropolar.lyapunov import _TangentRun

    grid, params, forcing, state = _setup(n)
    run = _TangentRun(state, params, forcing, pairs, dt=0.01, seed=3)
    run._advance_block()
    return run


def _reorth(n: int, calls: int) -> dict:
    from micropolar.lyapunov import _mgs

    result = {}
    for pairs in (PAIRS, 64):
        run = _tangent_run(n, pairs)
        if hasattr(run, "pairs"):
            def reorth():
                _mgs(run.grid, run.pairs)
        else:  # the frame as full spectra
            def reorth():
                _mgs(run.grid, run.V, run.Z)
        count = max(3, calls // (1 + pairs // 2))
        result[f"{pairs}_pairs"] = {**_summary(_timed(reorth, count)), **_traced(reorth, count)}
    return result


def _trace_sample(n: int, calls: int) -> dict:
    from micropolar.lyapunov import _trace_sample as trace_sample

    run = _tangent_run(n, PAIRS)
    params, work = run.base.params, run.base.work
    if hasattr(run, "pairs"):
        def sample():
            trace_sample(run.grid, params, run.U, run.W, run.pairs, terms=work.E_prev[:, 1:])
    else:  # a kernel call per sample
        def sample():
            trace_sample(run.grid, params, run.U, run.W, run.V, run.Z, work)
    count = max(3, calls // 4)
    return {**_summary(_timed(sample, count)), **_traced(sample, count)}


def _setup_layer(n: int, calls: int) -> dict:
    from micropolar.dynamics import (Params, make_forcing, random_state, read_checkpoint,
                                     write_checkpoint)
    from micropolar.spectral import make_grid

    def build():
        grid = make_grid(n, 6.283185307179586)
        make_forcing(grid, "two_scale", 0.008, 0.002, mode_lo=9, mode_hi=25, seed=1)
        return random_state(grid, 2, 0.15, 0.05)

    count = max(3, calls // 4)
    result = {"build": {**_summary(_timed(build, count)), **_traced(build, count)}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.ckpt"
        state = build()
        write_checkpoint(path, state, Params(0.15, 0.075, 0.15))

        def read():
            read_checkpoint(path)

        result["read_checkpoint"] = {**_summary(_timed(read, count)), **_traced(read, count)}
    return result


def _faults(n: int, calls: int) -> dict:
    from micropolar.dynamics import simulate

    grid, params, forcing, state = _setup(n)
    steps = max(2, calls // 2)
    simulate(state, params, forcing, 0.01 * steps, 0.01, stride=10)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    simulate(state, params, forcing, 0.01 * steps, 0.01, stride=10)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return {"minflt_per_step": (after - before) / steps, "steps": steps}


# The commands of the command_rss layer at each n, on perfbench's workload
# configs for RSS_SEED (simulate that of its dense-n16 part at n = 16,
# simulate and verify-estimates those of its sim-n128 part at that n
# above); at any other n, simulate and verify-estimates of sim-n128 on the
# shortened (--smoke) configs.
RSS_COMMANDS = {16: ("simulate",), 32: ("lyapunov",),
                64: ("simulate", "verify-estimates", "sync-modes", "sync-nodes"),
                128: ("simulate", "verify-estimates", "bounds"),
                256: ("simulate", "verify-estimates")}
RSS_SEED = 5


# Linux starts the ru_maxrss of an exec'd child at the high-water mark of
# the memory image it was spawned from, which for this process is the peak
# of the layers measured before; so a fresh interpreter that imports
# nothing heavy spawns each command and reports the command's figures.
_LAUNCHER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), time.perf_counter() - start,
                  usage.ru_maxrss / 1024.0]))
"""


def _spawn(argv: list[str], env: dict, cwd: str) -> tuple[float, float]:
    """Run argv to completion; (wall seconds, peak RSS MiB from wait4)."""
    out = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True).stdout
    code, wall, rss = json.loads(out)
    if code != 0:
        raise RuntimeError(f"{argv} failed with exit code {code}")
    return wall, rss


def _command_rss(n: int, calls: int) -> dict:
    """Peak RSS (``ru_maxrss``) and wall time of fresh ``python -m
    micropolar.cli`` processes of the measured tree, each command run
    ``calls // 5`` times (at least 1, at most 3)."""
    import micropolar

    sys.path.insert(0, str(ROOT / "perfbench"))
    from harness import child_env
    from workloads import DENSE_N16, LYAP_N32, SIM_N128, TWIN_N64

    env = child_env(Path(micropolar.__file__).resolve().parents[2])
    sim = DENSE_N16 if n == 16 else SIM_N128
    parts = (sim, TWIN_N64, LYAP_N32)
    commands = {command.subcommand: command for part in parts for command in part.commands}
    configs = {name: cfg for part in parts
               for name, cfg in part.build(RSS_SEED, n not in RSS_COMMANDS).items()}
    if sim is SIM_N128:
        for name in ("sim.json", "verify.json"):
            configs[name]["grid"]["n"] = n
    runs = max(1, min(3, calls // 5))
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in configs.items():
            (Path(tmp) / name).write_text(json.dumps(cfg))
        for name in RSS_COMMANDS.get(n, ("simulate", "verify-estimates")):
            argv = [sys.executable, "-m", "micropolar.cli", *commands[name].argv()]
            walls, rss = zip(*(_spawn(argv, env, tmp) for _ in range(runs)))
            result[name] = {**_summary(list(walls)), "peak_rss_mib": statistics.median(rss),
                            "peak_rss_all_mib": sorted(rss)}
    return result


# name, measure(n, calls) and the sizes it runs at
LAYERS = (
    ("advance", lambda n, calls: _advance(n, calls, 0), SIZES),
    (f"advance_{PAIRS}_pairs", lambda n, calls: _advance(n, calls, PAIRS), SIZES),
    ("explicit_terms", lambda n, calls: _explicit_terms(n, calls, 0), SIZES),
    (f"explicit_terms_{PAIRS}_pairs", lambda n, calls: _explicit_terms(n, calls, PAIRS), SIZES),
    ("rfft_pair", _rfft_pair, SIZES),
    ("from_half", _from_half, SIZES),
    ("record", _record, SIZES),
    ("nudge", _nudge, (64,)),
    ("reorth", _reorth, (32,)),
    ("trace_sample", _trace_sample, (32,)),
    ("setup", _setup_layer, SIZES),
    ("simulate_stride10", _faults, SIZES),
    ("command_rss", _command_rss, tuple(RSS_COMMANDS)),
)


def _layer(measure, *args):
    try:
        return measure(*args)
    except (ImportError, AttributeError, TypeError) as err:
        return {"absent": f"{type(err).__name__}: {err}"}


def _machine() -> dict:
    import numpy

    sys.path.insert(0, str(ROOT / "perfbench"))
    from probe import speed_probe

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "probe_median_s": statistics.median(speed_probe() for _ in range(5))}


def _merged(rounds: list):
    """The rounds' common structure with every number the median over the
    rounds (a count the same in all of them stays as it is); other values
    are the first round's."""
    first = rounds[0]
    if isinstance(first, dict):
        return {key: _merged([r[key] for r in rounds]) for key in first}
    if isinstance(first, (int, float)) and not isinstance(first, bool):
        return first if all(r == first for r in rounds) else statistics.median(rounds)
    return first


def _paired(this: list, other: list):
    """Both trees' rounds of one layer (and n) as ``--ab`` writes them."""
    first = this[0]
    if isinstance(first, dict) and all(isinstance(v, dict) for v in first.values()) \
            and "absent" not in first:
        return {key: _paired([r[key] for r in this], [r[key] for r in other]) for key in first}
    pair = {"this": _merged(this), "other": _merged(other)}
    if isinstance(first, dict) and "median_us" in first and "median_us" in other[0]:
        ratios = [a["median_us"] / b["median_us"] for a, b in zip(this, other)]
        q1, median, q3 = _quartiles(ratios)
        pair["ratio"] = {"median": median, "iqr": q3 - q1,
                         "wins": sum(r < 1 for r in ratios), "pairs": len(ratios)}
    if isinstance(first, dict) and "peak_rss_mib" in first and "peak_rss_mib" in other[0]:
        lower = [a["peak_rss_mib"] - b["peak_rss_mib"] for a, b in zip(this, other)]
        q1, median, q3 = _quartiles(lower)
        pair["rss_difference_mib"] = {"median": median, "iqr": q3 - q1,
                                      "wins": sum(d < 0 for d in lower), "pairs": len(lower)}
    return pair


def _ab(args) -> dict:
    """The paired point of ``args.src`` (this) against ``args.ab`` (other)."""
    srcs = {"this": Path(args.src).resolve(), "other": Path(args.ab).resolve()}
    rounds = {"this": [], "other": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.rounds):
            for side in ("this", "other")[:: 1 if i % 2 == 0 else -1]:
                out = Path(tmp) / f"{side}-{i}.json"
                command = [sys.executable, __file__, "--label", side, "--src", str(srcs[side]),
                           "--out", str(out), "--sizes", *map(str, args.sizes)]
                if args.calls:
                    command += ["--calls", str(args.calls)]
                subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
                rounds[side].append(json.loads(out.read_text()))
    this, other = rounds["this"], rounds["other"]
    # each tree by the name of the checkout that holds its src
    trees = {side: src.parent.name for side, src in srcs.items()}
    return {"label": args.label, "ab": {**trees, "rounds": args.rounds},
            "machine": _merged([r["machine"] for r in this + other]),
            "layers": {name: {n: _paired([r["layers"][name][n] for r in this],
                                         [r["layers"][name][n] for r in other])
                              for n in this[0]["layers"][name]}
                       for name in this[0]["layers"]}}


E2E_WORKLOADS = ("large-n", "small-n")
# "#   NAME: median M n=K ... [v1 v2 ...]", a line of unscaled samples
_SAMPLES = re.compile(r"^#   (\S+): median \S+ n=\d+.*\[(.*)\]$")


def _e2e_line(copy: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``copy``: its result
    line's metrics and counts, and the unscaled samples it prints."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    lines = subprocess.run(command, cwd=copy, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    result = json.loads(lines[-1])
    samples = {match[1]: [float(v) for v in match[2].split()]
               for match in map(_SAMPLES.match, lines) if match}
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "samples": samples}


def _e2e(trees: dict[str, Path], seconds: float, rounds: int, smoke: bool = False) -> dict:
    """
    The end-to-end lines of each tree (a checkout): ``rounds`` rounds of
    its own ``perfbench/run.py --trace 0`` on each of E2E_WORKLOADS, round
    i on seed i, the trees alternating within a round as ``--ab`` does.
    Each tree's ``src``, ``perfbench`` and ``BENCHMARK.json`` run from a
    temporary copy, so the tree is only read; a tree without them is
    recorded as absent.  With two trees, ``pairs`` holds per metric the
    ratio this / other of each round: its median, IQR and ``wins``
    (rounds where this is better, in the direction BENCHMARK.json gives).
    """
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    point = {workload: {} for workload in E2E_WORKLOADS}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {}
        for side, tree in trees.items():
            parts = ("src", "perfbench", "BENCHMARK.json")
            if not all((tree / part).exists() for part in parts) \
                    or not (tree / "perfbench" / "run.py").is_file():
                for workload in E2E_WORKLOADS:
                    point[workload][side] = {"absent": f"{tree} holds no perfbench/run.py"}
                continue
            copies[side] = Path(tmp) / side
            for part in parts[:2]:
                shutil.copytree(tree / part, copies[side] / part,
                                ignore=shutil.ignore_patterns("__pycache__", ".perfbench-work"))
            shutil.copy(tree / parts[2], copies[side])
            for workload in E2E_WORKLOADS:
                point[workload][side] = []
        for i in range(rounds):
            for workload in E2E_WORKLOADS:
                for side in list(copies)[:: 1 if i % 2 == 0 else -1]:
                    point[workload][side].append(
                        _e2e_line(copies[side], workload, i, seconds, smoke))
    if len(copies) == 2:
        for lines in point.values():
            this, other = lines["this"], lines["other"]
            lines["pairs"] = {}
            for name in this[0]["metrics"]:
                ratios = [a["metrics"][name] / b["metrics"][name] for a, b in zip(this, other)]
                q1, median, q3 = _quartiles(ratios)
                wins = sum(r < 1 if better.get(name, "lower") == "lower" else r > 1
                           for r in ratios)
                lines["pairs"][name] = {"median": median, "iqr": q3 - q1, "wins": wins,
                                        "pairs": len(ratios)}
    return point


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--merge", nargs="+", metavar="ROUND",
                        help="write the median point of these points instead of measuring")
    parser.add_argument("--ab", metavar="OTHER_SRC",
                        help="write a paired point of --src against this src directory")
    parser.add_argument("--rounds", type=int, default=10, help="--ab rounds per tree")
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES, help="the n to measure")
    parser.add_argument("--calls", type=int, help="calls per layer (default: by n)")
    parser.add_argument("--e2e", type=float, metavar="SECONDS",
                        help="also record perfbench's end-to-end lines, SECONDS per run")
    parser.add_argument("--out", help="output file (default: BENCH_<label>.json at the root)")
    args = parser.parse_args()

    if args.merge:
        point = _merged([json.loads(Path(f).read_text()) for f in args.merge])
        point.update(label=args.label, rounds=len(args.merge))
    elif args.ab:
        point = _ab(args)
    else:
        sys.path.insert(0, str(Path(args.src).resolve()))
        point = {"label": args.label, "machine": _machine(), "layers": {}}
        for name, measure, sizes in LAYERS:
            point["layers"][name] = {str(n): _layer(measure, n, args.calls or CALLS[n])
                                     for n in sizes if n in args.sizes}
            print(name, json.dumps(point["layers"][name]), flush=True)
    if args.e2e is not None:
        trees = {"this": Path(args.src).resolve().parent}
        if args.ab:
            trees["other"] = Path(args.ab).resolve().parent
        point["e2e"] = _e2e(trees, args.e2e, args.rounds)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
