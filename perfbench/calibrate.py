"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine the same work can run 1.6x slower for
seconds or minutes at a time, when another guest loads the physical core.
Every timing the benchmark reports is therefore taken next to a fixed
numpy kernel run on the same CPU, and is scaled to a host on which that
kernel takes NOMINAL_S.  The kernel is the benchmark's own code, so a
change to the library moves the scaled times as much as the raw ones.
Raw times are reported alongside.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.0015
_X = np.linspace(0.0, 1.0, 64)


def kernel_s():
    """Best of three timings of a fixed small-array numpy loop (1.5-2.5 ms)."""
    best = float("inf")
    for _ in range(3):
        x, acc = _X.copy(), 0
        start = time.perf_counter()
        for i in range(600):
            x = x * 0.999 + np.sin(x) * 1e-3
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds, kernel_before, kernel_after):
    """A time taken between two kernel timings, at the nominal host speed."""
    return seconds * NOMINAL_S / (0.5 * (kernel_before + kernel_after))
