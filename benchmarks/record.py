"""
Per-layer performance point of the micropolar solver, written to
``BENCH_<label>.json`` at the root of this checkout.

    python3 benchmarks/record.py --label LABEL [--src PATH] [--out PATH]

``--src`` is the ``src`` directory of the tree to measure (default: this
checkout's).  A point for an earlier commit measures a copy of it, for
example ``git archive COMMIT | tar -x -C DIR`` and ``--src DIR/src``; a
layer that does not exist there is recorded as absent.

Layers, on the README parameters at n = 16, 32, 64, 128 and 256:

- ``advance`` and ``advance_8_pairs``: one ``_Stepper.advance`` call
  without tangent pairs and with 8 (after two warm-up steps);
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
  block's first step; before, with its own kernel call).

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
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (16, 32, 64, 128, 256)
# calls per timed layer at each n, so that every layer takes about a second
CALLS = {16: 400, 32: 200, 64: 100, 128: 40, 256: 15}
PAIRS = 8


def _summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
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


def _faults(n: int, calls: int) -> dict:
    from micropolar.dynamics import simulate

    grid, params, forcing, state = _setup(n)
    steps = max(2, calls // 2)
    simulate(state, params, forcing, 0.01 * steps, 0.01, stride=10)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    simulate(state, params, forcing, 0.01 * steps, 0.01, stride=10)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return {"minflt_per_step": (after - before) / steps, "steps": steps}


# name, measure(n, calls) and the sizes it runs at
LAYERS = (
    ("advance", lambda n, calls: _advance(n, calls, 0), SIZES),
    (f"advance_{PAIRS}_pairs", lambda n, calls: _advance(n, calls, PAIRS), SIZES),
    ("from_half", _from_half, SIZES),
    ("record", _record, SIZES),
    ("nudge", _nudge, (64,)),
    ("reorth", _reorth, (32,)),
    ("trace_sample", _trace_sample, (32,)),
    ("simulate_stride10", _faults, SIZES),
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--out", help="output file (default: BENCH_<label>.json at the root)")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))

    point = {"label": args.label, "machine": _machine(), "layers": {}}
    for name, measure, sizes in LAYERS:
        point["layers"][name] = {str(n): _layer(measure, n, CALLS[n]) for n in sizes}
        print(name, json.dumps(point["layers"][name]), flush=True)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
