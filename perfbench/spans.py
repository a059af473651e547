"""
In-memory span recorder for the traced run.

A span is (name, start, end, parent span, run id).  Spans stay in memory
while the traced process runs and are written out once, when it ends.  A
span's self time is its duration minus the time its child spans cover;
the program is single-threaded, so children never overlap and the covered
time is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter


class SpanRecorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result)``
        runs outside the span to update counters."""
        nid = self._name_id(name)
        name_idx, parent, start, end, stack = (self.name_idx, self.parent, self.start,
                                               self.end, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_idx.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        """Write the spans as ``path`` (metadata) plus ``path.bin`` (columns)."""
        meta = {"run_id": self.run_id, "names": self.names, "count": len(self.start),
                "counters": dict(self.counters), "absent": self.absent}
        path.write_text(json.dumps(meta))
        with open(str(path) + ".bin", "wb") as fh:
            for column in (self.name_idx, self.parent, self.start, self.end):
                column.tofile(fh)


def load(path: Path) -> dict:
    meta = json.loads(path.read_text())
    n = meta["count"]
    columns = [array("i"), array("i"), array("d"), array("d")]
    with open(str(path) + ".bin", "rb") as fh:
        for column in columns:
            column.fromfile(fh, n)
    meta["name_idx"], meta["parent"], meta["start"], meta["end"] = columns
    return meta


def summarize(spans: dict) -> dict[str, dict]:
    """
    Per span name: ``calls``, ``total_s`` (outermost spans only, so a name
    that recurses through itself is not counted twice) and ``self_s``
    (duration minus the time covered by child spans, summed over all spans).
    """
    names, name_idx, parent = spans["names"], spans["name_idx"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for i, nid in enumerate(name_idx):
        rec = out[names[nid]]
        rec["calls"] += 1
        rec["self_s"] += dur[i] - covered[i]
        p = parent[i]
        while p >= 0 and name_idx[p] != nid:
            p = parent[p]
        if p < 0:
            rec["total_s"] += dur[i]
    return out
