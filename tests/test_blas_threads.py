"""
The CLI's outputs do not depend on the number of BLAS threads: lattices up
to n = 32 take their transforms as dense DFT products through BLAS, a
Benettin run's re-orthonormalization is a QR, and records take their
energies as one product of weights with power planes (with one table, a
matrix-vector product, which OpenBLAS splits over its threads from about
9e3 elements).  A short n = 16 ``simulate``, a short n = 32 ``lyapunov``
with 8 tangent pairs and a short n = 128 ``sync-nodes`` run in fresh
processes under OPENBLAS_NUM_THREADS=1 and =2 and must write the same
bytes (a JSON summary's ``timestamp`` aside), as must an n = 128 Benettin
run's ``base_h1`` series, which the CLI does not write.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIGS = {
    "simulate": {
        "grid": {"n": 16, "L": 6.283185307179586},
        "params": {"nu": 0.3, "nu_r": 0.1, "alpha": 0.3},
        "forcing": {"profile": "steady", "magnitude_f2": 0.01, "magnitude_g2": 0.002,
                    "mode_hi": 5, "seed": 3},
        "initial": {"seed": 11, "energy_u": 0.1, "energy_omega": 0.05},
        "integrator": {"dt": 0.01, "t_end": 0.5, "stride": 1},
    },
    "lyapunov": {
        "grid": {"n": 32, "L": 6.283185307179586},
        "params": {"nu": 0.3, "nu_r": 0.1, "alpha": 0.3},
        "forcing": {"profile": "steady", "magnitude_f2": 0.01, "magnitude_g2": 0.002,
                    "mode_hi": 6, "seed": 3},
        "initial": {"seed": 11, "energy_u": 0.08, "energy_omega": 0.03},
        "integrator": {"dt": 0.01, "t_end": 0.4, "stride": 10},
        "experiment": {"count": 8, "reorth_interval": 10, "spinup": 0.1},
    },
    "sync-nodes": {
        "grid": {"n": 128, "L": 6.283185307179586},
        "params": {"nu": 0.15, "nu_r": 0.075, "alpha": 0.15},
        "forcing": {"profile": "two_scale", "magnitude_f2": 0.008, "magnitude_g2": 0.002,
                    "mode_lo": 9, "mode_hi": 25, "seed": 3},
        "initial": {"seed": 11, "energy_u": 0.15, "energy_omega": 0.05},
        "integrator": {"dt": 0.01, "t_end": 0.05, "stride": 1},
        "experiment": {"num_nodes": 1024, "spinup": 0.02, "perturb_seed": 5},
    },
}

# the base_h1 series of an n = 128 Benettin run, as hex of its bits
BASE_H1 = """
import sys
from micropolar.dynamics import Params, make_forcing, random_state
from micropolar.lyapunov import lyapunov_spectrum
from micropolar.spectral import make_grid

grid = make_grid(128, 6.283185307179586)
forcing = make_forcing(grid, "two_scale", 0.008, 0.002, mode_lo=9, mode_hi=25, seed=3)
report = lyapunov_spectrum(random_state(grid, 11, 0.15, 0.05), Params(0.15, 0.075, 0.15),
                           forcing, count=2, t_span=0.1, dt=0.01, reorth_interval=5, seed=4)
sys.stdout.write(report.trace.base_h1.tobytes().hex())
"""


def _outputs(out: Path) -> dict[str, object]:
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            data = json.loads(data)
            data.pop("timestamp", None)
        files[path.name] = data
    return files


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_outputs_do_not_depend_on_blas_threads(tmp_path, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[command]))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "micropolar.cli", command, "--config", str(config),
                        "--out", str(out)], env=env, check=True, stdout=subprocess.DEVNULL,
                       timeout=300)
        outputs.append(_outputs(out))
    assert outputs[0] and outputs[0] == outputs[1]


def test_base_h1_does_not_depend_on_blas_threads():
    series = [subprocess.run([sys.executable, "-c", BASE_H1], check=True, capture_output=True,
                             text=True, timeout=300,
                             env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
                             ).stdout for threads in ("1", "2")]
    assert len(series[0]) == 16 * 3 and series[0] == series[1]
