"""Host-speed probe: times a fixed pure-Python kernel between units.

On a shared host the same computation can take anywhere from one to two
times as long, in phases lasting seconds, and CPU time moves with wall
time, so neither clock can tell a slow host from a slow program.  The
probe runs a fixed stdlib-only ``Fraction`` kernel every ``interval_s``
seconds between units and after every long unit, keeping the faster of
two runs.  A duration measured over [t0, t1] is rescaled by
``KERNEL_REF_S`` over the median kernel time seen from ``window_s``
before t0 to ``window_s`` after t1, so it reads as the duration on a
host where the kernel takes ``KERNEL_REF_S``.  The kernel uses no lhvlab
code, so no change to the program can move it.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# Median kernel time on the reference host (2-vCPU Intel Xeon, Python 3.11).
# Fixed for good: every run of every revision is rescaled to it.
KERNEL_REF_S = 0.003


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(1, i % 97 + 1)
    return total


class SpeedProbe:
    interval_s = 0.25
    window_s = 0.5

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        """The faster of two kernel runs, so one preemption does not count as a slow host."""
        if not self.enabled:
            return
        best = float("inf")
        for _ in range(2):
            start = perf_counter()
            kernel()
            end = perf_counter()
            best = min(best, end - start)
        self.times.append(end)
        self.kernel_s.append(best)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= self.interval_s:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """KERNEL_REF_S over the median kernel time around [t0, t1]; 1 when off."""
        if not self.enabled:
            return 1.0
        lo = bisect.bisect_left(self.times, t0 - self.window_s)
        hi = bisect.bisect_right(self.times, t1 + self.window_s)
        # always include the samples just before t0 and just after t1
        lo = min(lo, max(bisect.bisect_left(self.times, t0) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.times, t1) + 1, len(self.times)))
        return KERNEL_REF_S / statistics.median(self.kernel_s[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.factor(t0, t1)
