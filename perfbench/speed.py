"""Host speed sampled while the benchmark runs, to rescale its times.

On a host shared with other tenants the speed of a CPU changes, by up to a
factor of two, over seconds to minutes, so the wall time of the same trial
swings as much. :class:`Sampler` runs a fixed reference kernel (a small
scatter-add, a small matmul and a Python loop, the mix an attack trial spends
its time in) every ``PERIOD`` seconds on ``SIGALRM``, in the measuring thread
and so on the CPU the workload runs on, and keeps how long each run took.

A measured interval is reported in *scaled seconds*: its wall seconds times
``REFERENCE_S`` over the median kernel time sampled inside it. On a host
where the kernel takes ``REFERENCE_S`` they equal wall seconds; a slow phase
of the host lengthens the wall time and the kernel time alike and leaves the
scaled time where it was, while a slower program lengthens only the former.
The kernel takes about 0.15 ms, so sampling costs under 1% of the run.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.02
REFERENCE_S = 1e-4

_rng = np.random.default_rng(0)
_ROWS = _rng.integers(0, 64, 256)
_VALS = _rng.random((256, 16))
_MAT = _rng.random((64, 64))


def kernel_seconds():
    """Seconds one run of the reference kernel takes now."""
    start = time.perf_counter()
    acc = np.zeros((64, 16))
    np.add.at(acc, _ROWS, _VALS)
    _MAT @ _MAT
    x = 0
    for i in range(300):
        x += i
    return time.perf_counter() - start


class Sampler:
    """Kernel times sampled every ``PERIOD`` seconds while in the ``with`` block."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, *_):
        self.samples.append(kernel_seconds())

    def mark(self):
        """Start of an interval, for :meth:`since`."""
        return time.perf_counter(), len(self.samples)

    def since(self, mark):
        """(wall seconds, scaled seconds) from ``mark`` until now."""
        start, first = mark
        wall = time.perf_counter() - start
        # an interval shorter than PERIOD may hold no sample: use the latest ones
        window = self.samples[first:] or self.samples[-5:] or [kernel_seconds()]
        return wall, wall * REFERENCE_S / statistics.median(window)
