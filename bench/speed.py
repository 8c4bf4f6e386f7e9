"""Op times rescaled to a fixed host speed.

On a shared machine the host's speed changes by up to a half within
seconds, and drifts over minutes, so two runs of the same code differ
more than the changes the benchmark is meant to see.  While a run
measures, a timer interrupts it every PERIOD seconds to time a fixed
calibration kernel: dictionary lookups and tuple building over a table
larger than the first-level caches, and Fraction arithmetic, the kinds
of work the library does.  A stretch of time between two samples is
scaled by REFERENCE_S over the median kernel time of the WINDOW samples
around its closing sample; the samples' own time is left out.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD = 0.05
SPINS = 250
# the kernel's time on a quiet host: scaled times are seconds at that speed
REFERENCE_S = 0.0005
# a stretch's speed is the median of this many samples around it
WINDOW = 9

_rng = random.Random(1)
_TABLE = {(_rng.randrange(1 << 20), i): i for i in range(30000)}
_KEYS = list(_TABLE)
_rng.shuffle(_KEYS)
_THIRD = Fraction(1, 3)


def _kernel(start: int) -> int:
    table, keys, n, acc, q = _TABLE, _KEYS, len(_KEYS), 0, _THIRD
    for j in range(start, start + SPINS):
        key = keys[(j * 7919) % n]
        acc += table[key] + len((key[0], j, acc))
        if j % 8 == 0:
            q = (q * 3 + Fraction(j % 5, 7)) / 4
    return acc + q.numerator


class SpeedClock:
    """Samples the host's speed while started; use as a context manager."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.speed: list[float] = []
        self._old = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _kernel(len(self.starts) * SPINS)
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        took = [e - s for s, e in zip(self.starts, self.ends)]
        half = WINDOW // 2
        self.speed = [
            REFERENCE_S / statistics.median(took[max(0, k - half) : k + half + 1])
            for k in range(len(took))
        ]

    def scaled(self, a: float, b: float) -> float:
        """Seconds that [a, b] would have taken at the run's fastest
        speed.  Call after the clock has stopped."""
        starts, ends, speed = self.starts, self.ends, self.speed
        if not starts:
            return b - a
        total, pos = 0.0, a
        k = bisect.bisect_left(starts, a)
        while k < len(starts) and starts[k] < b:
            total += (starts[k] - pos) * speed[k]
            pos = ends[k]
            k += 1
        # the tail counts at the next sample's speed, or the last one's
        return total + (b - pos) * speed[min(k, len(starts) - 1)]
