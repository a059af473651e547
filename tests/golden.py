"""
Golden trajectory: a fixed n=32 forced run whose observer series and
final coefficients are stored in ``tests/data/golden_n32.npz``.

The stored tolerances follow one rule: for each key, 100 x the largest
normalized deviation (max |a - b| / max |b|) that scaling the initial u by
(1 + 1e-15) and omega by (1 - 1e-15) produces over the same horizon.  A
key the perturbation leaves bit-identical (time, forcing strengths) gets
tolerance 0, so it must reproduce exactly.

Regenerate only when the trajectory changes on purpose, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from micropolar.dynamics import Params, State, make_forcing, random_state, simulate
from micropolar.spectral import make_grid

DATA = Path(__file__).parent / "data" / "golden_n32.npz"
PERTURBATION = 1e-15
TOL_FACTOR = 100.0

N, L = 32, 2 * np.pi
PARAMS = Params(nu=0.05, nu_r=0.02, alpha=0.05)
DT, T_END, STRIDE = 0.005, 2.0, 20


def run(perturbation: float = 0.0) -> dict[str, np.ndarray]:
    """Observer series, times and final coefficients of the golden run."""
    grid = make_grid(N, L)
    forcing = make_forcing(grid, "steady", 0.05, 0.01, mode_hi=12, seed=4)
    init = random_state(grid, 21, energy_u=1.0, energy_omega=0.3)
    init = State(init.u * (1.0 + perturbation), init.omega * (1.0 - perturbation), init.t)
    res = simulate(init, PARAMS, forcing, t_end=T_END, dt=DT, stride=STRIDE)
    out = {"times": res.times, **res.series}
    final = res.final_state
    out["final_coeffs"] = np.stack([final.u.u1.coeffs, final.u.u2.coeffs, final.omega.coeffs])
    return out


def deviation(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| normalized by max |b| (0 when both vanish)."""
    worst = float(np.max(np.abs(a - b)))
    scale = float(np.max(np.abs(b)))
    return worst / scale if scale > 0 else (0.0 if worst == 0 else np.inf)


def main() -> None:
    base = run()
    moved = run(PERTURBATION)
    arrays = dict(base)
    for key in base:
        arrays[f"tol.{key}"] = np.float64(TOL_FACTOR * deviation(moved[key], base[key]))
    DATA.parent.mkdir(exist_ok=True)
    np.savez_compressed(DATA, **arrays)
    for key in base:
        print(f"{key}: tolerance {float(arrays['tol.' + key]):.3e}")


if __name__ == "__main__":
    main()
