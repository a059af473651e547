"""
CLI contract tests: subcommand outputs, config-hash embedding, exit codes
and byte-level determinism on a desk-scale configuration.
"""

import copy
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micropolar import cli
from micropolar.cli import EXIT_CONFIG, EXIT_NUMERICS, EXIT_OK, EXIT_VIOLATION, main


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    cfg = {
        "grid": {"n": 16, "L": 6.283185307179586},
        "params": {"nu": 0.3, "nu_r": 0.1, "alpha": 0.3},
        "forcing": {"profile": "steady", "magnitude_f2": 0.01, "magnitude_g2": 0.002,
                    "mode_hi": 5, "seed": 3},
        "initial": {"seed": 11, "energy_u": 0.1, "energy_omega": 0.05},
        "integrator": {"dt": 0.01, "t_end": 3.0, "stride": 10},
        "experiment": {"count": 3, "m": 8, "num_nodes": 16, "spinup": 0.5,
                       "perturb_seed": 7},
    }
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run(cmd, config, out, *extra):
    return main([cmd, "--config", str(config), "--out", str(out), *extra])


def load_summary(path):
    with open(path) as fh:
        data = json.load(fh)
    data.pop("timestamp", None)
    return data


class TestSubcommands:
    def test_simulate_outputs(self, small_config, tmp_path):
        assert run("simulate", small_config, tmp_path) == EXIT_OK
        csv = (tmp_path / "series.csv").read_text().splitlines()
        assert csv[0].startswith("# config_hash=")
        assert csv[1].split(",")[0] == "t"
        assert (tmp_path / "final.ckpt").exists()
        summary = load_summary(tmp_path / "summary.json")
        assert summary["config_hash"] in csv[0]

    def test_bounds_outputs(self, small_config, tmp_path):
        assert run("bounds", small_config, tmp_path) == EXIT_OK
        data = load_summary(tmp_path / "bounds.json")
        assert data["modes_closed_form"] >= 0
        assert data["attractor_fractal"] == 2 * data["attractor_hausdorff"]
        assert data["nodes"] is None or data["nodes"] >= 1

    def test_bounds_two_scale_equal_modes(self, small_config, tmp_path):
        # equal ends of the pair put the whole requested magnitude in that mode
        cfg = json.loads(small_config.read_text())
        cfg["forcing"] = {"profile": "two_scale", "magnitude_f2": 0.01, "magnitude_g2": 0.002,
                          "mode_lo": 4, "mode_hi": 4, "seed": 3}
        path = tmp_path / "two_scale.json"
        path.write_text(json.dumps(cfg))
        assert run("bounds", path, tmp_path / "out") == EXIT_OK
        data = load_summary(tmp_path / "out" / "bounds.json")
        assert data["F_tilde"] ** 2 == pytest.approx(0.01 + 0.002, rel=1e-12)

    def test_verify_outputs(self, small_config, tmp_path):
        assert run("verify-estimates", small_config, tmp_path, "--strict") == EXIT_OK
        checks = load_summary(tmp_path / "checks.json")["checks"]
        names = {c["check_name"] for c in checks}
        assert {"energy_inequality", "absorbing_ball", "h1_pointwise_bound"} <= names
        assert all(not c["violated"] for c in checks)

    def test_sync_modes_outputs(self, small_config, tmp_path):
        assert run("sync-modes", small_config, tmp_path) == EXIT_OK
        header = (tmp_path / "sync_modes.csv").read_text().splitlines()[1]
        assert header == "t,delta_P,delta_Q"
        summary = load_summary(tmp_path / "summary.json")
        assert summary["kind"] == "modes" and summary["m"] == 8

    def test_sync_nodes_outputs(self, small_config, tmp_path):
        assert run("sync-nodes", small_config, tmp_path) == EXIT_OK
        header = (tmp_path / "sync_nodes.csv").read_text().splitlines()[1]
        assert header == "t,eta_u,eta_omega,h1_diff"

    def test_lyapunov_outputs(self, small_config, tmp_path):
        assert run("lyapunov", small_config, tmp_path) == EXIT_OK
        data = load_summary(tmp_path / "lyapunov.json")
        assert len(data["exponents"]) == 3
        assert data["qN_series_file"] == "qn_series.csv"
        assert (tmp_path / "qn_series.csv").exists()

    def test_checkpoint_info(self, small_config, tmp_path, capsys):
        run("simulate", small_config, tmp_path)
        assert main(["checkpoint-info", str(tmp_path / "final.ckpt")]) == EXIT_OK
        info = json.loads(capsys.readouterr().out)
        assert info["n"] == 16 and info["divergence_free"]

    def test_checkpoint_info_oversized_header(self, small_config, tmp_path, capsys):
        run("simulate", small_config, tmp_path)
        ckpt = tmp_path / "final.ckpt"
        raw = bytearray(ckpt.read_bytes()[:4 + 4 + 4 + 6 * 8 + 64])
        raw[8:12] = (2**20).to_bytes(4, "little")  # n = 2**20: 48 TiB of payload
        ckpt.write_bytes(bytes(raw))
        assert main(["checkpoint-info", str(ckpt)]) == EXIT_CONFIG
        assert "truncated" in capsys.readouterr().err


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, small_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("simulate", small_config, a)
        run("simulate", small_config, b)
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
        assert (a / "final.ckpt").read_bytes() == (b / "final.ckpt").read_bytes()
        assert load_summary(a / "summary.json") == load_summary(b / "summary.json")

    def test_hash_changes_with_config(self, small_config, tmp_path):
        original = json.loads(small_config.read_text())
        changed = dict(original)
        changed["integrator"] = dict(original["integrator"], dt=0.005)
        other = tmp_path / "changed.json"
        other.write_text(json.dumps(changed))
        assert cli.config_hash(original) != cli.config_hash(json.loads(other.read_text()))

    def test_csv_rows_keep_the_per_value_format(self, tmp_path):
        # one %-format per row gives the bytes of formatting each value on
        # its own, as f"{float(value):.17g}", for the awkward values too
        import numpy as np

        # past one block of rows, with the awkward values in the last one
        rng = np.random.default_rng(0)
        t, x, y = rng.standard_normal((3, cli._CSV_BLOCK + 4)) * 1e3
        t[-4:] = [0.0, 0.1, 1e300, 2.5e-310]
        x[-4:] = [math.inf, -math.inf, math.nan, -0.0]
        y[-4:] = [5e-324, -1.0 / 3.0, 0.0, 123456789.0]
        path = tmp_path / "series.csv"
        cli.write_csv(path, ["t", "x", "y"], [t, x, y], "abc")
        rows = "".join(",".join(f"{float(col[i]):.17g}" for col in (t, x, y)) + "\n"
                       for i in range(len(t)))
        assert path.read_text() == "# config_hash=abc\nt,x,y\n" + rows
        assert "-0," in rows and "4.9406564584124654e-324" in rows and "nan" in rows


class TestExitCodes:
    def test_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("simulate", bad, tmp_path) == EXIT_CONFIG

    def test_missing_required_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid": {"n": 16}}))
        assert run("simulate", bad, tmp_path) == EXIT_CONFIG

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_invalid_grid(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "grid": {"n": 15}, "params": {"nu": 1.0, "alpha": 1.0},
            "integrator": {"dt": 0.01, "t_end": 0.1},
        }))
        assert run("simulate", bad, tmp_path) == EXIT_CONFIG

    @pytest.mark.parametrize("damage", ["missing", "trailing_bytes", "not_a_path",
                                        "nonzero_mean", "outside_band", "not_divergence_free"])
    def test_bad_checkpoint(self, small_config, tmp_path, capsys, damage):
        # besides files that cannot be read, states that a resumed run would
        # change at its first step without a trace (the fields zero a mean,
        # the time loops carry only the dealiased band and project the
        # velocity) are config errors naming initial.checkpoint, while
        # checkpoint-info still reports on them
        assert run("simulate", small_config, tmp_path / "src") == EXIT_OK
        ckpt = tmp_path / "src" / "final.ckpt"
        if damage == "missing":
            ckpt.unlink()
        elif damage == "trailing_bytes":
            ckpt.write_bytes(ckpt.read_bytes() + b"\0" * 7)
        elif damage != "not_a_path":
            raw = ckpt.read_bytes()
            header = len(raw) - 3 * 16 * 16 * 16
            spectra = np.frombuffer(raw, dtype="<c16", offset=header).reshape(3, 16, 16)
            u1, u2, omega = spectra.copy()
            if damage == "nonzero_mean":
                omega[0, 0] = 0.5
            elif damage == "outside_band":
                # kcut = 5 at n = 16
                omega[7, 7] = omega[-7, -7] = 1e-3
            else:
                u1[1, 0] = u1[-1, 0] = 1e-3
            ckpt.write_bytes(raw[:header] + np.stack([u1, u2, omega]).tobytes())
            assert main(["checkpoint-info", str(ckpt)]) == EXIT_OK
        cfg = json.loads(small_config.read_text())
        # an integer would otherwise be opened as a file descriptor (0 is stdin)
        cfg["initial"] = {"checkpoint": 0 if damage == "not_a_path" else str(ckpt)}
        resumed = tmp_path / "resumed.json"
        resumed.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run("simulate", resumed, tmp_path / "out") == EXIT_CONFIG
        assert "initial.checkpoint" in capsys.readouterr().err

    @staticmethod
    def _variant(small_config, tmp_path, **sections):
        cfg = json.loads(small_config.read_text())
        for name, updates in sections.items():
            cfg[name] = {**cfg.get(name, {}), **updates}
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(cfg))
        return path

    @pytest.mark.parametrize("cmd,section,key,value", [
        pytest.param("simulate", "integrator", "t_end", 0.015, id="simulate-integrator-t_end"),
        pytest.param("sync-modes", "experiment", "spinup", 0.015,
                     id="sync-modes-experiment-spinup"),
        pytest.param("lyapunov", "experiment", "spinup", 0.015, id="lyapunov-experiment-spinup"),
        # 15 whole steps, but 1.5 re-orthonormalization blocks of 10 steps
        pytest.param("lyapunov", "integrator", "t_end", 0.15, id="lyapunov-integrator-t_end"),
    ])
    def test_span_not_whole_steps(self, small_config, tmp_path, capsys, cmd, section, key,
                                  value):
        # dt = 0.01: 0.015 would silently round to 0.02
        cfg = self._variant(small_config, tmp_path, **{section: {key: value}})
        assert run(cmd, cfg, tmp_path / "out") == EXIT_CONFIG
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    def test_span_whole_steps_up_to_roundoff(self, small_config, tmp_path):
        # 0.29 / 0.01 = 28.999999999999996 in floating point
        cfg = self._variant(small_config, tmp_path, integrator={"t_end": 0.29})
        assert run("simulate", cfg, tmp_path) == EXIT_OK
        summary = load_summary(tmp_path / "summary.json")
        assert summary["steps"] == 29

    @pytest.mark.parametrize("section,key", [
        ("params", "nu_rr"),
        ("forcing", "magnitud_f2"),
        ("grid", "N"),
        ("initial", "sed"),
        ("integrator", "strides"),
        ("constants", "C1"),
    ])
    def test_unknown_key_rejected(self, small_config, tmp_path, capsys, section, key):
        cfg = self._variant(small_config, tmp_path, **{section: {key: 0.1}})
        assert run("verify-estimates", cfg, tmp_path / "out") == EXIT_CONFIG
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd,section,key,value", [
        pytest.param("simulate", "initial", "energy_u", math.nan, id="initial-energy_u-nan"),
        pytest.param("simulate", "initial", "energy_u", -1, id="initial-energy_u-negative"),
        pytest.param("simulate", "initial", "kmax", 0, id="initial-kmax-zero"),
        pytest.param("simulate", "initial", "seed", True, id="initial-seed-bool"),
        pytest.param("simulate", "initial", "seed", -1, id="initial-seed-negative"),
        pytest.param("simulate", "grid", "L", math.inf, id="grid-L-inf"),
        pytest.param("simulate", "params", "nu_r", math.nan, id="params-nu_r-nan"),
        pytest.param("simulate", "forcing", "magnitude_f2", math.inf,
                     id="forcing-magnitude_f2-inf"),
        pytest.param("sync-nodes", "experiment", "mu", math.nan, id="experiment-mu-nan"),
        pytest.param("sync-modes", "experiment", "m", True, id="experiment-m-bool"),
        pytest.param("lyapunov", "experiment", "count", True, id="experiment-count-bool"),
        pytest.param("lyapunov", "experiment", "seed", -1, id="experiment-seed-negative"),
        pytest.param("sync-modes", "experiment", "perturb_seed", -1,
                     id="experiment-perturb_seed-negative"),
        pytest.param("bounds", "experiment", "F_tilde", "abc", id="experiment-F_tilde-str"),
        pytest.param("bounds", "experiment", "F_tilde", math.inf, id="experiment-F_tilde-inf"),
        pytest.param("bounds", "experiment", "F_tilde", -1, id="experiment-F_tilde-negative"),
        pytest.param("verify-estimates", "constants", "C", math.nan, id="constants-C-nan"),
        pytest.param("simulate", "experiment", "perturb_sed", 7, id="experiment-typo"),
    ])
    def test_bad_value_named(self, small_config, tmp_path, capsys, cmd, section, key, value):
        cfg = self._variant(small_config, tmp_path, **{section: {key: value}})
        assert run(cmd, cfg, tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()  # rejected when the config loads

    def test_F_tilde_minus1_needs_F_tilde(self, small_config, tmp_path, capsys):
        # alone it would be ignored, both strengths then coming from the forcing
        cfg = self._variant(small_config, tmp_path, experiment={"F_tilde_minus1": 5.0})
        assert run("bounds", cfg, tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "experiment.F_tilde_minus1" in err and re.search(r"experiment\.F_tilde\b", err)

    @pytest.mark.parametrize("key,value", [("magnitude_f2", -1), ("mode_hi", 10**6)])
    def test_zero_forcing_checked(self, small_config, tmp_path, capsys, key, value):
        cfg = self._variant(small_config, tmp_path, forcing={"profile": "zero", key: value})
        assert run("bounds", cfg, tmp_path / "out") == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_section_rejected(self, small_config, tmp_path, capsys):
        # read as a typo, not as the constants section: C would silently stay 1
        cfg = self._variant(small_config, tmp_path, constant={"C": 50})
        assert run("bounds", cfg, tmp_path / "out") == EXIT_CONFIG
        assert re.search(r"field constant\b", capsys.readouterr().err)

    @pytest.mark.parametrize("cmd,section,key,value", [
        # a run too short for the post-transient averaging window
        pytest.param("verify-estimates", "integrator", "stride", 100, id="verify-window"),
        pytest.param("sync-modes", "integrator", "t_end", 0, id="sync-zero-span"),
        pytest.param("lyapunov", "experiment", "count", 256, id="lyapunov-mode-budget"),
        # below n^2 - 1 = 255 but above the band's 2 ((2 kcut + 1)^2 - 1) = 240
        pytest.param("lyapunov", "experiment", "count", 241, id="lyapunov-band-dimension"),
    ])
    def test_library_domain_exit(self, small_config, tmp_path, capsys, cmd, section, key, value):
        cfg = self._variant(small_config, tmp_path, **{section: {key: value}})
        assert run(cmd, cfg, tmp_path / "out") == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_lyapunov_count_fills_the_band(self, small_config, tmp_path, capsys):
        # n = 8 (kcut = 2): 48 pairs span the band, 49 are a config error
        small = {"grid": {"n": 8}, "forcing": {"mode_hi": 4}}
        cfg = self._variant(small_config, tmp_path, **small, experiment={"count": 48})
        assert run("lyapunov", cfg, tmp_path / "out") == EXIT_OK
        assert len(load_summary(tmp_path / "out" / "lyapunov.json")["exponents"]) == 48
        cfg = self._variant(small_config, tmp_path, **small, experiment={"count": 49})
        assert run("lyapunov", cfg, tmp_path / "out") == EXIT_CONFIG
        assert "config error: experiment.count: " in capsys.readouterr().err

    def test_experiment_keys_lenient(self, small_config, tmp_path):
        # one experiment block serves several subcommands, each reading its own keys
        cfg = self._variant(small_config, tmp_path, experiment={"mu": "auto", "reorth_interval": 5})
        assert run("bounds", cfg, tmp_path) == EXIT_OK

    def test_jobs_option_removed(self, small_config, tmp_path):
        assert run("bounds", small_config, tmp_path, "--jobs", "2") == EXIT_CONFIG

    def test_numerical_failure_exit(self, tmp_path):
        cfg = tmp_path / "blowup.json"
        cfg.write_text(json.dumps({
            "grid": {"n": 16, "L": 6.283185307179586},
            "params": {"nu": 1e-4, "nu_r": 0.0, "alpha": 1e-4},
            "forcing": {"profile": "zero"},
            "initial": {"seed": 3, "energy_u": 2500.0, "energy_omega": 0.0},
            "integrator": {"dt": 0.1, "t_end": 2.0},
        }))
        assert run("simulate", cfg, tmp_path) == EXIT_NUMERICS

    def test_strict_violation_exit(self, small_config, tmp_path, monkeypatch):
        from micropolar.estimates import CheckReport

        def fake_energy_check(traj, constants, slack=0.05, max_pairs=200):
            return CheckReport("energy_inequality", 2.0, 1.0, -1.0, violated=True)

        monkeypatch.setattr(cli.estimates, "verify_energy_inequality", fake_energy_check)
        assert run("verify-estimates", small_config, tmp_path, "--strict") == EXIT_VIOLATION
        assert run("verify-estimates", small_config, tmp_path) == EXIT_OK


# A valid config on which every subcommand runs in a few dozen steps at n=16.
_BASE = {
    "grid": {"n": 16, "L": 6.283185307179586},
    "params": {"nu": 0.3, "nu_r": 0.1, "alpha": 0.3},
    "forcing": {"profile": "steady", "magnitude_f2": 0.01, "magnitude_g2": 0.002,
                "mode_hi": 5, "seed": 3},
    "initial": {"seed": 11, "energy_u": 0.1, "energy_omega": 0.05, "kmax": 4},
    "integrator": {"dt": 0.01, "t_end": 0.16, "stride": 1},
    "constants": {"C": 1.0},
    "experiment": {"count": 2, "m": 4, "num_nodes": 16, "mu": "auto", "spinup": 0.02,
                   "perturb_seed": 7, "reorth_interval": 2, "seed": 0},
}
_PLACES = ([(section, key) for section, keys in _BASE.items() for key in keys]
           + [(section, None) for section in _BASE]
           + [("initial", "zero"), ("initial", "checkpoint"), ("constants", "d"),
              ("experiment", "F_tilde"), ("experiment", "F_tilde_minus1")])
_VALUES = [None, True, False, 0, 1, -1, 2.5, -0.5, math.nan, math.inf, -math.inf,
           "abc", "auto", [], {}]


def _mutated(mutations):
    """_BASE after each (action, (section, key), value): drop, set, or typo (a
    misspelt key, or a misspelt section when key is None)."""
    config = copy.deepcopy(_BASE)
    for action, (section, key), value in mutations:
        value = copy.deepcopy(value)
        if key is None:
            if action == "drop":
                config.pop(section, None)
            elif action == "set":
                config[section] = value
            else:
                config[section[:-1]] = {}
            continue
        block = config.get(section)
        if not isinstance(block, dict):
            block = config[section] = {}
        if action == "drop":
            block.pop(key, None)
        else:
            block[key if action == "set" else (key[:-1] or key + key)] = value
    return config


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    cmd=st.sampled_from(["bounds"] * 5 + ["simulate", "verify-estimates", "sync-modes",
                                          "sync-nodes", "lyapunov"]),
    mutations=st.lists(st.tuples(st.sampled_from(["drop", "set", "typo"]),
                                 st.sampled_from(_PLACES), st.sampled_from(_VALUES)),
                       min_size=1, max_size=3),
)
def test_mutated_config_exits_cleanly(cmd, mutations):
    """Dropped keys, wrong types, bools, NaN, +-Infinity, negative seeds and
    typo keys end in an exit code, never in an exception out of main."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(_mutated(mutations)))
        assert main([cmd, "--config", str(path), "--out", str(Path(tmp) / "out")]) in {
            EXIT_OK, EXIT_CONFIG, EXIT_NUMERICS, EXIT_VIOLATION}


class TestMemoryRule:
    """A run's peak memory is its workspace plus band planes: full spectra
    exist before the first step and after the last, never beside the
    stepper's workspace."""

    def test_simulate_holds_no_full_spectra_beside_the_workspace(self, tmp_path, monkeypatch):
        import tracemalloc
        import weakref

        from micropolar import dynamics
        from micropolar.spectral import make_grid

        # held here, so that the run's grid tables are not traced
        grid = make_grid(64, 6.283185307179586)
        config = {
            "grid": {"n": grid.n, "L": grid.L},
            "params": {"nu": 0.15, "nu_r": 0.075, "alpha": 0.15},
            "forcing": {"profile": "two_scale", "magnitude_f2": 0.008, "magnitude_g2": 0.002,
                        "mode_lo": 9, "mode_hi": 25, "seed": 5},
            "initial": {"seed": 5, "energy_u": 0.15, "energy_omega": 0.05},
            "integrator": {"dt": 0.01, "t_end": 0.1, "stride": 5},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))

        built, marks = [], {}
        build_initial, advance = cli.build_initial, dynamics._Stepper.advance
        from_half = dynamics._from_half

        def build(*args):
            state = build_initial(*args)
            built.append(weakref.ref(state))
            return state

        def step(self, *args):
            if marks:
                return advance(self, *args)
            marks["alive"] = [ref() is not None for ref in built]
            marks["entered"] = tracemalloc.get_traced_memory()[0]
            result = advance(self, *args)
            marks["stepped"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return result

        def final(*args):
            marks["final"] = tracemalloc.get_traced_memory()[0]
            return from_half(*args)

        monkeypatch.setattr(cli, "build_initial", build)
        monkeypatch.setattr(dynamics._Stepper, "advance", step)
        monkeypatch.setattr(dynamics, "_from_half", final)
        tracemalloc.start()
        try:
            assert run("simulate", path, tmp_path / "out") == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        # the initial State is gone before the first step
        assert marks["alive"] == [False]
        # the final State is built once the stepper is gone: below the level
        # on entering the first step (set-up and the initial band planes),
        # with the copy of the last planes in place of the initial ones
        band = grid.n * (grid.kcut + 1) * 16
        assert marks["final"] <= marks["entered"]
        # From the end of the first step on, the run holds what it held on
        # entering that step and the workspace that the step allocated.  It
        # adds at most: a record's power of (u1, u2, omega) and its six
        # weighted products (1.5 and 3 band planes of complex size), while
        # the initial planes (3 band planes) are gone; the copy of the last
        # planes (3) in their place; then, with the stepper released, the
        # final State and the outputs, within what the stepper held.  Plus
        # 1 band plane for the series and Python's small objects.
        workspace = marks["stepped"] - marks["entered"]
        records = (1.5 + 3 - 3) * band
        assert peak <= marks["entered"] + workspace + records + band, \
            (peak - marks["stepped"]) / band
