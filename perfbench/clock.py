"""Measured time referred to a fixed machine speed.

On a shared 2-core machine, where the figures in README.md were measured,
the same pass runs up to twice as slowly at some times as at others, in
phases that last tens of seconds: neighbours on the same cores take
cycles.  A 20-second run therefore lands in one phase or another, and raw
medians differ by 20-30% from run to run.

The clock runs a fixed reference kernel -- small numpy arrays and plain
Python arithmetic, nothing from phaseintegral -- between the program's
operations, at least every EVERY_S seconds of measured time.  Each measured
segment is divided by the mean kernel time on either side of it and
multiplied by REFERENCE_S, the kernel's time when the machine runs at full
speed.  The result reads as seconds on the uncontended machine; a change
in the program moves it exactly as it moves raw wall time.  Child processes
(pia commands, set-up probes) are scaled by kernels run in the parent just
before and after them; run.py pins the process to one CPU, which children
inherit, so parent and child share the same neighbours.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.021     # kernel time at full speed on that machine
EVERY_S = 0.2
_PERF = time.perf_counter
_B = np.arange(1, 10, dtype=complex)


def kernel() -> float:
    """Seconds taken by the fixed reference kernel now."""
    t0 = _PERF()
    acc = 0.0
    table = {}
    for i in range(3000):
        a = np.convolve(_B, _B)[:9] * (1.0 / (i + 1))
        vals = [complex(v) for v in a]
        acc += abs(vals[3]) + math.sqrt(i + 1.0)
        table[i % 17] = acc
    return _PERF() - t0


def scale(raw: float, before: float, after: float) -> float:
    return raw * 2.0 * REFERENCE_S / (before + after)


class SpeedClock:
    """Accumulates raw and speed-referred time of timed segments."""

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self._pending = 0.0
        self._last = kernel()

    def add(self, seconds: float):
        self._pending += seconds
        if self._pending >= EVERY_S:
            self.flush()

    def flush(self):
        if self._pending == 0.0:
            return
        now = kernel()
        self.raw += self._pending
        self.scaled += scale(self._pending, self._last, now)
        self._pending = 0.0
        self._last = now

    def lap(self) -> tuple:
        """(raw, scaled) seconds since the previous lap."""
        self.flush()
        out = (self.raw, self.scaled)
        self.raw = self.scaled = 0.0
        return out
