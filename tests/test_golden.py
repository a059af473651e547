"""
Golden-trajectory regression: a fixed n=32 forced run (config in
``golden.py``) must reproduce the stored observer series and final
coefficients.

Tolerance rule, per key: 100 x the largest normalized deviation
max |a - b| / max |b| that scaling the initial u by (1 + 1e-15) and omega by
(1 - 1e-15) produced over the same 400 steps, measured by the solver that
wrote the file.  That is about 2e-13 for the state series and 1.5e-13 for the
final coefficients; time and forcing series must match exactly.  Never widen
these to make a change pass.
"""

import numpy as np
import pytest

from golden import DATA, deviation, run


@pytest.fixture(scope="module")
def golden():
    with np.load(DATA) as data:
        return {key: data[key] for key in data.files}


@pytest.fixture(scope="module")
def trajectory():
    return run()


def test_keys_match(golden, trajectory):
    assert set(trajectory) == {k for k in golden if not k.startswith("tol.")}


@pytest.mark.parametrize("key", [
    "times", "u_l2_sq", "omega_l2_sq", "u_h1_sq", "omega_h1_sq", "u_da_sq", "omega_da_sq",
    "f_l2_sq", "g_l2_sq", "f_hm1_sq", "g_hm1_sq", "final_coeffs",
])
def test_matches_golden(golden, trajectory, key):
    tol = float(golden[f"tol.{key}"])
    assert tol < 1e-12
    assert trajectory[key].shape == golden[key].shape
    assert deviation(trajectory[key], golden[key]) <= tol
