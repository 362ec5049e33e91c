"""Clocks that time one call: in wall seconds, or in reference-speed seconds.

The shared host this benchmark was built on changes speed by tens of percent
within seconds and drifts as much over minutes: a fixed kernel timed in 20 s
windows varied with an interquartile range of about 20 % of its median, even
40 s windows did not average it out, and the core clock reads a constant
2.1 GHz, so frequency counters do not show it. Timing a call only in wall
seconds would hide any change the benchmark is meant to show.

`Calibrated` therefore samples the host's speed while the call runs: a SIGALRM
every INTERVAL_S runs a fixed calibration kernel in the main thread (between
two bytecodes of the program, so the program's state is untouched), and the
kernel also runs just before and after the call. The call's own wall time
(handler time removed) is scaled by REFERENCE_S over the kernel's mean time.
Measured on this host over 150 s, that cut the spread of 20 s window totals
from 6-15 % to about 3 %. The kernel costs about a tenth of the call's wall
time, which is not counted.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.special import logsumexp

INTERVAL_S = 0.05
REFERENCE_S = 0.006  # median kernel time on this host, so results read about as wall time
_ARRAY = np.linspace(-3.0, 3.0, 125).reshape(5, 5, 5)
_SIGNAL = np.sin(0.1 * np.arange(480))


def kernel_s() -> float:
    """Wall time of a fixed mix of the kinds of work the program does: a
    small-array scipy call, a numpy correlation and an interpreted loop."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(30):
        acc += logsumexp(_ARRAY, axis=0)[0, 0]
        acc += np.correlate(_SIGNAL, _SIGNAL, mode="full")[479]
        for k in range(60):
            acc += k * 0.5
    return time.perf_counter() - start


class Wall:
    """Plain wall-clock timing; the seconds it reports are wall seconds."""

    def time(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        return result, wall, wall


class Calibrated:
    """Timing in reference-speed seconds (see the module docstring). Creating
    one installs its SIGALRM handler for the life of the process."""

    def __init__(self):
        self._kernels: list[float] = []
        self._handler_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._kernels.append(kernel_s())
        self._handler_s += time.perf_counter() - start

    def time(self, fn, *args):
        """(result, reference-speed seconds, wall seconds without sampling)."""
        self._kernels = [kernel_s()]
        self._handler_s = 0.0
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = time.perf_counter() - start - self._handler_s
        kernels = self._kernels + [kernel_s()]
        return result, wall * REFERENCE_S / statistics.mean(kernels), wall
