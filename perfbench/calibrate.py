"""Machine-speed probe.

The benchmark runs on shared machines whose speed drifts by a fifth or more
over seconds to tens of seconds, far more than the changes the benchmark
must resolve.  A fixed reference kernel, timed in the same process while the
units run, tracks that drift: its mix of small complex numpy calls and
scalar Python work is the mix of wernerlab's own hot loops.  Times are then
reported at the reference speed, at which the kernel takes ``REFERENCE_MS``.

The kernel uses numpy only, never wernerlab, so no change to the package
can change it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

# About the median kernel time on the shared 2-core x86-64 machine (Python
# 3.11.7, numpy 2.4.6) where the benchmark was written.  It only sets the
# scale.
REFERENCE_MS = 4.8
# The kernel runs every INTERVAL_S of wall time; a unit is scaled by the
# median kernel time over the unit widened by WINDOW_S on each side.
INTERVAL_S = 0.25
WINDOW_S = 0.5

_RNG = np.random.default_rng(20020623)
_A = _RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4))
_A = _A @ _A.conj().T / 4.0
_B = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)


def kernel() -> float:
    """Fixed work: 4x4 Hermitian eigendecompositions, products and scalar
    Python arithmetic."""
    a = _A.copy()
    acc = 0.0
    for _ in range(100):
        w, v = np.linalg.eigh(a)
        a = (v * np.abs(w)) @ v.conj().T / float(np.abs(w).max()) + _B
        acc += float(np.trace(a @ _B).real)
        for j in range(40):
            acc += math.sqrt(j + (acc % 1.0))
    return acc


class SpeedMeter:
    """Times the kernel every INTERVAL_S of wall time from a SIGALRM
    handler, so a unit is sampled while it runs, however long it is.

    Use as a context manager around the code to measure.  ``own_time`` and
    ``scaled`` take intervals of ``time.perf_counter`` readings.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # the machine stalled for a whole interval: skip
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def own_time(self, a: float, b: float) -> float:
        """Seconds in [a, b] not spent in the kernel."""
        lo = bisect.bisect_left(self.ends, a)
        hi = bisect.bisect_right(self.starts, b)
        spent = sum(min(e, b) - max(s, a) for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return (b - a) - max(spent, 0.0)

    def factor(self, a: float, b: float) -> float:
        """Scale to the reference speed for work done in [a, b]."""
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        if hi - lo < 2:  # too few samples: use the nearest ones
            mid = bisect.bisect_left(self.starts, 0.5 * (a + b))
            lo, hi = max(mid - 1, 0), min(mid + 1, len(self.starts))
        times = [e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        return REFERENCE_MS * 1e-3 / statistics.median(times)

    def scaled(self, a: float, b: float) -> float:
        """Own time of [a, b] at the reference speed."""
        return self.own_time(a, b) * self.factor(a, b)
