"""
CLI contract tests: subcommand outputs, config-hash embedding, exit codes
and byte-level determinism on a desk-scale configuration.
"""

import json

import pytest

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

    @pytest.mark.parametrize("damage", ["missing", "trailing_bytes", "not_a_path"])
    def test_bad_checkpoint(self, small_config, tmp_path, damage):
        assert run("simulate", small_config, tmp_path / "src") == EXIT_OK
        ckpt = tmp_path / "src" / "final.ckpt"
        if damage == "missing":
            ckpt.unlink()
        elif damage == "trailing_bytes":
            ckpt.write_bytes(ckpt.read_bytes() + b"\0" * 7)
        cfg = json.loads(small_config.read_text())
        # an integer would otherwise be opened as a file descriptor (0 is stdin)
        cfg["initial"] = {"checkpoint": 0 if damage == "not_a_path" else str(ckpt)}
        resumed = tmp_path / "resumed.json"
        resumed.write_text(json.dumps(cfg))
        assert run("simulate", resumed, tmp_path / "out") == EXIT_CONFIG

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
