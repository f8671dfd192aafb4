"""Host-speed calibration of timed work.

The benchmark runs on shared hosts whose speed drifts: on the reference
machine a fixed pure-Python loop takes 1.1x to 1.7x its fastest time from one
second to the next, and whole minutes run about 1.5x slower than others, so
medians of wall time move by up to a quarter between two sets of runs.

:class:`HostSpeed` samples a fixed reference loop every ``period`` seconds
from a ``SIGALRM`` handler, on the thread doing the work.  A timed interval
is then converted to *reference seconds*: its wall time, minus the time spent
sampling, times ``REFERENCE_S`` over the mean time the reference loop took
during the interval.  That is the wall time the work would have taken on a
host where the loop takes ``REFERENCE_S``, its fastest time on the reference
machine.  The reference does not touch the program, so a faster program
reads proportionally faster.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_S = 2e-4   # the loop's fastest time on the reference machine
PERIOD_S = 0.02

_TABLE = {(i, i * 7 % 97, i % 13): complex(i, 1) for i in range(4096)}
_KEYS = [k for i, k in enumerate(_TABLE) if i % 4 == 1]


def reference_loop() -> complex:
    """Tuple-keyed dict lookups and complex arithmetic, like the program's
    inner products."""
    acc = 0j
    for k in _KEYS:
        acc += _TABLE[k] * 1.0000001
    return acc


class HostSpeed:
    """Context manager that samples the host's speed while it is active."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts = []     # sample start times, increasing
        self.lengths = []    # how long each sample of the loop took

    def _sample(self, signum, frame):
        t = time.perf_counter()
        reference_loop()
        self.starts.append(t)
        self.lengths.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the work done between ``start`` and ``end``.

        An interval shorter than the period borrows the samples just before
        it; with no sample at all, the wall time is returned unchanged."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        inside = self.lengths[lo:hi]
        wall = end - start - sum(inside)
        pace = inside or self.lengths[max(lo - 3, 0):lo]
        if not pace:
            return wall
        return wall * REFERENCE_S / statistics.fmean(pace)

    def median_pace(self) -> float:
        """Median reference-loop time over the samples so far, in seconds."""
        return statistics.median(self.lengths) if self.lengths else float("nan")
