"""A fixed reference computation that gauges the machine's current speed.

The benchmark's host is shared, and its speed swings by up to 2x within
seconds.  The untraced run brackets every timed period (and every batch
of set-ups) with samples of this computation and reports each time as a multiple of
the samples around it, scaled by REFERENCE_S: CPU seconds at the speed
the machine had when the baseline was measured.  The
computation mixes what the program does on the python kernel backend:
small dense solves and matrix products in numpy, and an interpreted loop
over their entries.  It uses numpy and Python only, never ``colnmpc``,
so a change to the program cannot change the yardstick.
"""

import math
import time

import numpy as np

_N = 43                      # the full-order column's state count
_ITERATIONS = 800
# About one sample's CPU time on the baseline host (a 2-core x86-64 VM)
# in its fast spells, 0.023 s; its slow spells read 0.042 s.
REFERENCE_S = 0.025
# Fewer samples on short periods: at most one per MIN_INTERVAL_S of wall
# time, unless forced.
MIN_INTERVAL_S = 0.25

_rng = np.random.default_rng(0)
_A = _rng.random((_N, _N)) + _N * np.eye(_N)
_b = _rng.random(_N)


def sample():
    """CPU seconds the reference computation takes now."""
    c0 = time.process_time()
    acc = 0.0
    for i in range(_ITERATIONS):
        x = np.linalg.solve(_A, _b)
        for j in range(_N):
            acc += x[j] if j % 2 else -0.5 * x[j]
        acc += float((_A @ x)[i % _N])
    dt = time.process_time() - c0
    if not math.isfinite(acc):
        raise ArithmeticError("reference computation diverged")
    return dt


class SpeedProbe:
    """Called at period boundaries; returns the latest sample, taking a
    new one when the last is older than MIN_INTERVAL_S or when forced."""

    def __init__(self):
        self.latest = None
        self._t_latest = -math.inf
        self.samples = []

    def __call__(self, force=False):
        if force or time.perf_counter() - self._t_latest >= MIN_INTERVAL_S:
            self.latest = sample()
            self.samples.append(self.latest)
            self._t_latest = time.perf_counter()
        return self.latest


def no_probe(force=False):
    """Stands in for the probe where times stay raw."""
    return REFERENCE_S
