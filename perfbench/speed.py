"""Host speed correction for timings taken on a shared machine.

On a small shared host the speed of the benchmark's CPU swings by up to
1.8x, in phases from a fraction of a second to well over a run's length,
whatever the benchmark itself does.  Speed runs a fixed reference loop
(Fraction arithmetic, dict stores and small numpy operations, the kinds of
work pertwave does) between items, at most every PERIOD_S seconds, and
scales each item's time by REFERENCE_LOOP_S / local.  local is the loop's
time at the item's midpoint, interpolated between probes after a running
median over three probes, so that one probe hit by a brief interruption
does not rescale its neighbours.  The garbage collector is off while the
loop runs, so that a collection of the benchmark's own heap is not taken
for a slow host.

A corrected time is what the item would take on a host where the loop
takes REFERENCE_LOOP_S throughout: 3 ms is its time on an uncontended
2-vCPU Intel Xeon virtual machine with Python 3.11.  Program changes
cannot move the loop, so a corrected rate still moves with the program;
the uncorrected rate is reported beside it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
REFERENCE_LOOP_S = 0.003


def reference_loop():
    total = Fraction(0)
    seen = {}
    for i in range(1, 1000):
        total += Fraction(1, i)
        seen[(i, i + 1)] = total
    a = np.arange(64.0)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0)
    return total, a


class Speed:
    def __init__(self):
        self.times = []      # midpoints of the reference loops
        self.seconds = []    # their durations
        self._last = float("-inf")

    def probe(self):
        gc.disable()
        try:
            t0 = perf_counter()
            reference_loop()
            t1 = perf_counter()
        finally:
            gc.enable()
        self.times.append(0.5 * (t0 + t1))
        self.seconds.append(t1 - t0)
        self._last = t1

    def correct(self, seconds):
        """seconds at the reference speed, by the latest probe (for deadlines)."""
        return seconds * REFERENCE_LOOP_S / self.seconds[-1]

    def maybe_probe(self):
        if perf_counter() - self._last >= PERIOD_S:
            self.probe()

    def scaler(self):
        """(seconds, midpoint) -> seconds at the reference speed."""
        s = self.seconds
        smooth = [statistics.median(s[max(0, i - 1):i + 2]) for i in range(len(s))]
        times = self.times

        def scale(seconds, at):
            i = bisect.bisect_left(times, at)
            if i == 0:
                local = smooth[0]
            elif i == len(times):
                local = smooth[-1]
            else:
                w = (at - times[i - 1]) / (times[i] - times[i - 1])
                local = (1.0 - w) * smooth[i - 1] + w * smooth[i]
            return seconds * REFERENCE_LOOP_S / local

        return scale

    def summary(self):
        ordered = sorted(self.seconds)
        return {"probes": len(ordered), "reference_ms": 1e3 * REFERENCE_LOOP_S,
                "min_ms": 1e3 * ordered[0], "median_ms": 1e3 * statistics.median(ordered),
                "max_ms": 1e3 * ordered[-1]}
