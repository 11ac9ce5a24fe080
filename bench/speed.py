"""Host-speed correction for the timers of a worker.

A host with 2 vCPUs (Intel Xeon at 2.0 GHz) shared with other tenants changed
speed by 10-25 % over seconds, and the raw round times with it.  While the
workload runs, a SIGALRM handler times a fixed calibration kernel every
``INTERVAL_S``; an operation's time is then scaled by how long the kernel
took around it:

    normalized = (wall time - kernel runs inside) * REFERENCE_KERNEL_S / kernel time

The kernel is benchmark code, so a change to darbouxkdv cannot speed it up or
slow it down.  On that host the correction cut the spread of repeated 8 s
blocks of the same work from 23 % to 6 %.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# median kernel time on the host above: normalized times are seconds there
REFERENCE_KERNEL_S = 2.3e-3


def kernel() -> float:
    """A fixed mix of interpreter work and small numpy calls, ~2 ms."""
    s = 0.0
    for i in range(20000):
        s += (i % 7) * 0.5
    a = np.arange(200.0)
    for _ in range(50):
        a = np.sqrt(a + 1.0)
    return s + float(a[0])


def kernel_time(repeats: int = 5) -> float:
    """Median wall time of ``repeats`` kernel runs, in the calling process."""
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


class Speedometer:
    """Context manager that samples the kernel time while it is active."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples = []  # (start, end) of each kernel run

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalized(self, start: float, end: float) -> float:
        return normalized(self.samples, start, end)


def normalized(samples, start: float, end: float) -> float:
    """Seconds of [start, end] without the kernel runs inside, at reference speed.

    The speed is the median kernel time over the runs inside the interval, or,
    for an interval too short to hold one, over the runs just before and after.
    """
    inside = [(a, b) for a, b in samples if start <= a and b <= end]
    net = (end - start) - sum(b - a for a, b in inside)
    near = inside
    if not near:
        before = [s for s in samples if s[1] <= start][-1:]
        after = [s for s in samples if s[0] >= end][:1]
        near = before + after
    return net * REFERENCE_KERNEL_S / statistics.median(b - a for a, b in near)
