"""Machine-speed probe that scales measured times to a reference speed.

The benchmark runs on shared virtual machines whose speed swings by up
to 1.7x over phases of one to tens of seconds, in process CPU time as
much as in wall time, so a raw wall time mostly measures the phase a run
happened to land in.  While an operation runs, a SIGALRM handler times a
fixed kernel of small numpy operations (the same kind of work the
program does) every ``interval`` seconds.  Each stretch of program time
between two probes is scaled by ``REFERENCE_PROBE_S / probe time`` of
the probe that ends it, and probe time itself is left out, giving the
time the work would take at the speed where the kernel takes
``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

# A typical warm time of probe_kernel on a 2-vCPU Intel Xeon VM at
# 2.1 GHz with Python 3.11 and numpy 2.4; it only fixes the scale.
REFERENCE_PROBE_S = 5.0e-4

_A = np.array([[2.0, 0.5], [0.5, 1.0]])
_EYE = np.eye(2)
WARMUP_STEPS = 10


def probe_kernel(steps: int = 40) -> np.ndarray:
    m = _A
    for _ in range(steps):
        m = (m + m.T) / 2.0
        m = np.linalg.solve(_A, m) + _EYE
    return m


def timed_probe() -> tuple[float, float]:
    """Warm the caches the program evicted, then time the kernel."""
    probe_kernel(WARMUP_STEPS)
    start = perf_counter()
    probe_kernel()
    return start, perf_counter()


class SpeedProbe:
    """Samples the kernel from SIGALRM while active (main thread only)."""

    def __init__(self, interval: float = 0.03):
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def _sample(self, *_) -> None:
        begin = perf_counter()
        start, end = timed_probe()
        self.starts.append(begin)
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _factor(self, i: int) -> float:
        i = min(i, len(self.starts) - 1)
        return REFERENCE_PROBE_S / self.durations[i]

    def work_seconds(self, t0: float, t1: float) -> float:
        """Program time in ``[t0, t1]`` scaled to the reference speed."""
        i = bisect.bisect_left(self.starts, t0)
        total, cur = 0.0, t0
        while i < len(self.starts) and self.starts[i] < t1:
            total += (self.starts[i] - cur) * self._factor(i)
            cur = self.ends[i]
            i += 1
        return total + max(t1 - cur, 0.0) * self._factor(i)
