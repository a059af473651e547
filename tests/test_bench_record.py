"""
Smoke test of the performance recorder ``benchmarks/record.py``: every
layer runs once at n = 16 with a few calls against the tree under test.
The recorder writes a layer it cannot run as ``"absent"`` (that is how a
point for an older commit marks what the commit lacks), so a refactor
that drops an entry point would otherwise vanish from the next point
without an error.  Merged rounds keep a point's structure.
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


def test_setup_layer_times_the_builders_and_the_checkpoint_read():
    sizes = {name: sizes for name, _, sizes in RECORD.LAYERS}
    assert sizes["setup"] == RECORD.SIZES
    result = RECORD._layer(dict((n, m) for n, m, _ in RECORD.LAYERS)["setup"], 16, 4)
    for part in ("build", "read_checkpoint"):
        assert result[part]["median_us"] > 0
        assert result[part]["traced_peak_bytes"] > 0


def test_merge_takes_the_median_of_each_number():
    rounds = [{"label": "a", "machine": {"nproc": 2, "probe_median_s": p},
               "layers": {"advance": {"16": {"median_us": t, "calls": 3}},
                          "nudge": {"16": {"absent": "AttributeError: x"}}}}
              for p, t in ((0.1, 30.0), (0.3, 10.0), (0.2, 20.0))]
    merged = RECORD._merged(rounds)
    assert merged["machine"] == {"nproc": 2, "probe_median_s": 0.2}
    assert merged["layers"]["advance"]["16"] == {"median_us": 20.0, "calls": 3}
    assert merged["layers"]["nudge"]["16"] == {"absent": "AttributeError: x"}


def test_ab_writes_paired_ratios(tmp_path):
    # two rounds of each tree at n = 16 (here the same tree on both sides)
    import subprocess
    import sys

    src, out = RECORDER.parent.parent / "src", tmp_path / "ab.json"
    subprocess.run([sys.executable, str(RECORDER), "--label", "ab", "--ab", str(src),
                    "--rounds", "2", "--sizes", "16", "--calls", "3", "--out", str(out)],
                   check=True, stdout=subprocess.DEVNULL)
    point = json.loads(out.read_text())
    assert point["ab"]["rounds"] == 2 and point["ab"]["this"] == point["ab"]["other"]
    record = point["layers"]["record"]["16"]
    for side in ("this", "other"):
        assert record[side]["median_us"] > 0 and record[side]["traced_peak_bytes"] > 0
    ratio = record["ratio"]
    assert ratio["pairs"] == 2 and 0 <= ratio["wins"] <= 2 and ratio["median"] > 0
    assert point["layers"]["setup"]["16"]["build"]["ratio"]["pairs"] == 2
    assert set(point["layers"]["nudge"]) == set()  # measured at n = 64 only
