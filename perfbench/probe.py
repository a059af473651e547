"""
Host speed probe: a fixed mix of the kinds of work the solver does (complex
FFTs at n=64 and n=16, elementwise products, interpreted Python), on fixed
inputs and with no micropolar code, so no change to the program can move it.

Each child runs it once after its command, in the same process and right
after the command's work, so it sees nearly the same host speed.  The host
this benchmark was tuned on slowed by up to 40 % for tens of minutes; the
median probe time of a run tracks most of that drift (see README.md).
"""

import time

# Median probe time on the machine where the bounds were set (2-vCPU Xeon
# VM under KVM, Python 3.11, numpy 2.4 with pocketfft).
PROBE_NOMINAL_S = 0.13


def speed_probe() -> float:
    """Seconds the probe takes now, in this process."""
    import numpy as np

    rng = np.random.default_rng(12345)
    field = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    symbol = 1.0 / (1.0 + rng.random((64, 64)))
    small = field[:16, :16].copy()
    start = time.perf_counter()
    for _ in range(200):
        field = field + 1e-9 * np.fft.ifft2(np.fft.fft2(field) * symbol)
    for _ in range(600):
        small = small + 1e-9 * np.fft.ifft2(np.fft.fft2(small) * symbol[:16, :16])
    total, table = 0.0, {}
    for i in range(120000):
        table[i & 255] = total
        total += (i * 0.5) % 7.0
    return time.perf_counter() - start
