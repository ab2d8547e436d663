"""Calibration kernel: a measure of the machine's speed at the moment.

A fixed 1000-step RK4 loop on a 4x4 complex matrix, written here and
independent of the package, so that no change under ``src/`` moves it.
Timings are rescaled to a machine on which one run takes ``CAL_REF_S``
(see README, Noise).
"""

import time

import numpy as np

CAL_REF_S = 0.02
_STEPS = 1000
_MATRIX = (np.arange(16).reshape(4, 4) % 5 - 2.0) * (0.01 + 0.02j)


def calibrate() -> float:
    """Seconds taken by one run of the calibration kernel."""
    t0 = time.perf_counter()
    y, h = np.eye(4, dtype=complex), 1e-3
    for _ in range(_STEPS):
        k1 = _MATRIX @ y
        k2 = _MATRIX @ (y + 0.5 * h * k1)
        k3 = _MATRIX @ (y + 0.5 * h * k2)
        k4 = _MATRIX @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return time.perf_counter() - t0
