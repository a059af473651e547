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


def test_command_rss_records_fresh_cli_processes():
    # the commands of the layer (at n = 16 the dense-n16 part's simulate;
    # every large-n command at its own n, bounds at 128 and the twins at
    # 64), and at n = 24 (not in the table) the shortened simulate and
    # resumed verify-estimates
    assert RECORD.RSS_COMMANDS == {16: ("simulate",), 32: ("lyapunov",),
                                   64: ("simulate", "verify-estimates", "sync-modes",
                                        "sync-nodes"),
                                   128: ("simulate", "verify-estimates", "bounds"),
                                   256: ("simulate", "verify-estimates")}
    sizes = {name: sizes for name, _, sizes in RECORD.LAYERS}
    assert sizes["command_rss"] == (16, 32, 64, 128, 256)
    # a command's figure is its own, not the peak of the process that
    # measures it, here raised by 96 MiB of ballast
    import numpy as np

    ballast = np.ones(96 * 2 ** 20 // 8)
    for n, expected in ((16, {"simulate"}), (24, {"simulate", "verify-estimates"})):
        result = RECORD._layer(RECORD._command_rss, n, 3)
        assert set(result) == expected
        for command in result.values():
            assert command["calls"] == 1 and command["median_us"] > 0
            assert 10 < command["peak_rss_mib"] == command["peak_rss_all_mib"][0] \
                < ballast.nbytes / 2 ** 20


def test_ab_pairs_the_peak_rss():
    this = [{"median_us": 2.0, "peak_rss_mib": 40.0}, {"median_us": 2.0, "peak_rss_mib": 41.5}]
    other = [{"median_us": 1.0, "peak_rss_mib": 42.0}, {"median_us": 4.0, "peak_rss_mib": 41.0}]
    pair = RECORD._paired(this, other)
    rss = pair["rss_difference_mib"]
    assert (rss["median"], rss["wins"], rss["pairs"]) == (-0.75, 1, 2) and rss["iqr"] > 0
    assert pair["ratio"]["wins"] == 1


def test_e2e_records_each_trees_perfbench_lines(tmp_path):
    # one round of perfbench's shortened (--smoke) configs on this tree; a
    # tree without perfbench/ is recorded as absent
    root = RECORDER.parent.parent
    (tmp_path / "src").mkdir()
    point = RECORD._e2e({"this": root, "other": tmp_path}, 0, 1, smoke=True)
    assert set(point) == {"large-n", "small-n"}
    for lines in point.values():
        assert lines["other"] == {"absent": f"{tmp_path} holds no perfbench/run.py"}
        assert "pairs" not in lines
        (line,) = lines["this"]
        assert line["seed"] == 0 and line["correct"] and line["failed"] == 0
        assert set(line["metrics"]) == {"wall_s", "steps_per_s", "setup_s", "peak_rss_mib"}
        for name in line["metrics"]:
            assert len(line["samples"][name]) == 1 and line["samples"][name][0] > 0
    assert not (root / ".perfbench-work").exists()
