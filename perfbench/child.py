"""
Child-process entry: runs one ``micropolar`` CLI command through
``micropolar.cli.main`` and writes what the parent cannot see from
outside to a small JSON result file:

- ``import_s``: time to import ``micropolar.cli``;
- ``first_step``: CLOCK_MONOTONIC reading at the first time step, or None
  when the command takes none;
- ``last_build_end``: reading when the last ``cli.build_*`` call returned,
  which ends set-up for a command that takes no time step;
- ``probe_s``: the time of the host speed probe (probe.py), run after the
  command returns;
- with ``--trace``, the spans of every layer entry point (see layers.py).

Usage: child.py --result PATH [--trace SPANS_PATH --run-id ID] -- <cli args>
"""

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

from probe import speed_probe

_now = time.clock_gettime
_MONO = time.CLOCK_MONOTONIC


def _mark_setup(result: dict) -> None:
    """One-shot hooks that note the first time step, then unhook themselves,
    and end markers on the cli.build_* calls."""
    from micropolar import cli, dynamics, lyapunov

    hooks = [(dynamics._Stepper, "advance"), (lyapunov._TangentRun, "_advance_block")]
    originals = [(cls, name, cls.__dict__[name]) for cls, name in hooks
                 if name in getattr(cls, "__dict__", {})]

    def one_shot(fn):
        def first(*args, **kwargs):
            result["first_step"] = _now(_MONO)
            for cls, name, orig in originals:
                setattr(cls, name, orig)
            return fn(*args, **kwargs)
        return first

    for cls, name, orig in originals:
        setattr(cls, name, one_shot(orig))

    def marked(fn):
        def build(*args, **kwargs):
            value = fn(*args, **kwargs)
            result["last_build_end"] = _now(_MONO)
            return value
        return build

    for name in [n for n in vars(cli) if n.startswith("build_")]:
        setattr(cli, name, marked(getattr(cli, name)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--run-id", default="")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    result = {"first_step": None, "last_build_end": None}
    start = _now(_MONO)
    import micropolar.cli
    result["import_s"] = _now(_MONO) - start

    recorder = None
    if args.trace:
        from layers import install
        from spans import SpanRecorder

        recorder = SpanRecorder(args.run_id)
        install(recorder)
    _mark_setup(result)

    try:
        code = micropolar.cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = 1
    result["exit_code"] = code
    result["returned"] = _now(_MONO)
    result["probe_s"] = speed_probe()
    if recorder is not None:
        recorder.dump(Path(args.trace))
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
