"""Machine-speed reference for scaling timings to a nominal machine speed.

The benchmark's host shares its cores with other tenants, so its speed
drifts by up to about 1.6x in phases that last seconds; a whole 10 s run
can fall inside a slow phase, and no repetition within the run averages
that out. So a fixed reference kernel is timed between operations, and
each operation's time is multiplied by NOMINAL_S over the kernel's time
around it: the value reads as if the machine ran at the kernel's nominal
speed. The kernel allocates no object the garbage collector tracks, so
it leaves the program's collection schedule untouched. Raw timings are
kept next to the scaled ones in every result record.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# The kernel's time in a quiet phase on a 2-core Xeon KVM guest.
NOMINAL_S = 0.002
SAMPLE_EVERY_S = 0.05
_SORT_INPUT = np.linspace(0.0, 1.0, 10_000)[::-1].copy()
_SMALL = np.ones(51)


def kernel() -> None:
    """Integer and float arithmetic, small numpy calls and one sort: the
    kinds of work the workloads spend their time on."""
    total = 0
    for i in range(15_000):
        total += i * i
    acc = 0.0
    for i in range(8_000):
        acc += float(i) * 0.5
    for _ in range(800):
        np.add(_SMALL, _SMALL)
    np.sort(_SORT_INPUT)


class SpeedReference:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        """Time the kernel twice and keep the faster run, which drops a
        preemption that hits one of them."""
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.seconds.append(best)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, t: float) -> float:
        """NOMINAL_S over the kernel time at ``t``, interpolated linearly
        between the samples around it."""
        i = bisect.bisect(self.times, t)
        if i == 0:
            seconds = self.seconds[0]
        elif i == len(self.times):
            seconds = self.seconds[-1]
        else:
            t0, t1 = self.times[i - 1], self.times[i]
            w = (t - t0) / (t1 - t0)
            seconds = (1.0 - w) * self.seconds[i - 1] + w * self.seconds[i]
        return NOMINAL_S / seconds
