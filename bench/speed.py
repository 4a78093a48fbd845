"""Host-speed calibration, so that timings measure the program, not the host.

The reference host (2 shared vCPUs) runs at two speeds, about 1.6x apart,
for tens of seconds at a time, and CPU time moves with wall time.  A fixed
object-heavy kernel (tuple keys, hashing, dict updates: the same kind of
work as the engine's canonical forms) is timed every CALIBRATE_EVERY_S
while a loop runs.  Over 90 s of such phases, in 3-s windows, the ratio
of a mu* fold's time to the kernel's time varied by about 5% (coefficient
of variation), the fold's time alone by 14%.  A latency is reported at
the reference speed:

    latency * NOMINAL_MS / (median kernel time within WINDOW_S of the query)

NOMINAL_MS is the kernel's time on the reference host at its fast speed,
so there normalized and raw figures agree.  It is a fixed unit: changing
it rescales every timing and breaks comparison with earlier runs.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_MS = 2.2
CALIBRATE_EVERY_S = 0.2
WINDOW_S = 2.0


def kernel() -> int:
    counts: dict = {}
    for i in range(6000):
        key = (("rho", i % 37, i % 11), (i % 5,))
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def kernel_ms() -> float:
    start = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - start) / 1e6


class SpeedLog:
    """Kernel timings taken along a run, with their perf_counter times."""

    def __init__(self):
        self.at: list = []
        self.ms: list = []
        kernel()   # the first call in a process is slower; never keep it

    def sample(self) -> None:
        ms = kernel_ms()
        self.at.append(time.perf_counter())
        self.ms.append(ms)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_MS over the median kernel time within WINDOW_S of
        [start, end]; the three nearest samples if none is that close."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.ms[lo:hi]
        if len(near) < 3:
            mid = bisect.bisect_left(self.at, (start + end) / 2)
            near = self.ms[max(0, mid - 2):mid + 2]
        return NOMINAL_MS / statistics.median(near)
