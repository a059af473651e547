"""
The CLI's outputs do not depend on the number of BLAS threads: lattices up
to n = 32 take their transforms as dense DFT products through BLAS, and a
Benettin run's re-orthonormalization is a QR.  A short n = 16 ``simulate``
and a short n = 32 ``lyapunov`` with 8 tangent pairs run in fresh
processes under OPENBLAS_NUM_THREADS=1 and =2 and must write the same
bytes (a JSON summary's ``timestamp`` aside).
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
}


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
