"""The reference kernel that the driver timings are measured against.

The benchmark shares a few cores of a host with other jobs, and their load
changes the speed of the same code by 15-30% over tens of seconds: in one
5-minute probe, 20-second medians of one 2000x2000 powerlu call ranged from
260 to 340 ms.  Timing this fixed kernel just before every driver call and
reporting the call's time in multiples of it cancels most of that drift
(the same probe's ratios ranged from 11.0 to 11.8).  The kernel uses no
rlra code, so a change to the library moves only the numerator.

It mixes the three kinds of work the drivers do: a memory-bound
matrix-vector product over a 32 MB array, like a product of the dense
operands; a small matrix product in BLAS; and a Python loop of small NumPy
steps, like the NumPy LU kernel.  On one core of a 2.1 GHz Xeon the three
take about 8, 5 and 9 ms.
"""

import time

import numpy as np

SEED = 20020713  # fixed: the kernel is the same in every run
GEMV_REPS = 6
STEPS = 48  # elimination steps of the Python loop


class Reference:
    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.big = rng.standard_normal((2000, 2000))
        self.vec = rng.standard_normal(2000)
        self.square = rng.standard_normal((500, 500))
        self.panel = rng.standard_normal((2000, STEPS))

    def __call__(self):
        """Seconds the kernel took this time."""
        t0 = time.perf_counter()
        for _ in range(GEMV_REPS):
            self.big.T @ self.vec
        self.square @ self.square
        p = self.panel.copy()
        for j in range(STEPS):
            i = j + int(np.argmax(np.abs(p[j:, j])))
            p[[j, i]] = p[[i, j]]
            p[j + 1 :, j] /= p[j, j]
            p[j + 1 :, j + 1 :] -= np.outer(p[j + 1 :, j], p[j, j + 1 :])
        return time.perf_counter() - t0
