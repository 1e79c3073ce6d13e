"""Machine-speed probe: scales measured times to a fixed reference speed.

On a shared host the same computation can run 20% slower or faster for tens
of seconds at a time, which no amount of repetition inside a 20-second run
averages away.  While ops are timed, a SIGALRM handler runs a fixed numpy loop
every ``PERIOD`` seconds and records how long it took.  The time of an
interval, less the time the probe itself spent inside it, is then multiplied
by ``REFERENCE_S`` over the median probe time near the interval: the seconds
the interval would have taken with the probe loop at its reference speed.  A
change to curveclust does not touch the probe loop, so it moves the scaled
times as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD = 0.25
REFERENCE_S = 0.002  # the probe loop on an idle core of a 2.1 GHz Xeon
_NEAR = 2 * PERIOD  # probe samples this close to an interval describe it
_X = np.linspace(0.0, 1.0, 500)
_W = np.full(500, 1.0 / 500)


def probe_loop() -> float:
    """Small-array numpy calls with Python in between, like the pair kernel."""
    acc = 0.0
    for i in range(128):
        y = np.sqrt(_X + i)
        c = y - _W @ y
        acc += float(_W @ (c * c)) + float(np.clip(c, -0.5, 0.5).sum())
    return acc


class SpeedProbe:
    """Samples the probe loop while installed; ``scaled`` converts intervals."""

    def __init__(self):
        self.starts = []
        self.lengths = []

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe_loop()
        self.starts.append(t0)
        self.lengths.append(time.perf_counter() - t0)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def raw(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] not spent in the probe."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return t1 - t0 - sum(self.lengths[i:j])

    def scaled(self, t0: float, t1: float) -> float:
        """``raw(t0, t1)`` at the probe's reference speed."""
        lo = bisect.bisect_left(self.starts, t0 - _NEAR)
        hi = bisect.bisect_left(self.starts, t1 + _NEAR)
        near = self.lengths[lo:hi] or self.lengths
        return self.raw(t0, t1) * REFERENCE_S / statistics.median(near)
