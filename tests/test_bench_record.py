"""
Smoke test of the performance recorder ``benchmarks/record.py``: every
layer runs once at n = 16 with a few calls against the tree under test.
The recorder writes a layer it cannot run as ``"absent"`` (that is how a
point for an older commit marks what the commit lacks), so a refactor
that drops an entry point would otherwise vanish from the next point
without an error.
"""

import importlib.util
import json
from pathlib import Path

import pytest

RECORDER = Path(__file__).resolve().parent.parent / "benchmarks" / "record.py"


def _recorder():
    spec = importlib.util.spec_from_file_location("bench_record", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORD = _recorder()


@pytest.mark.parametrize("name,measure", [(name, measure) for name, measure, _ in RECORD.LAYERS],
                         ids=[name for name, _, _ in RECORD.LAYERS])
def test_layer_runs_on_this_tree(name, measure):
    result = RECORD._layer(measure, 16, 3)
    text = json.dumps(result)
    assert '"absent"' not in text, f"layer {name}: {text}"
    assert "median_us" in text or "minflt_per_step" in text, text
