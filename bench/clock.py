"""Wall time scaled to a fixed speed of the machine.

The speed of a shared virtual machine drifts: the same code runs 20-50%
slower for stretches of seconds to minutes, and CPU time drifts with wall
time, so neither shows the program's own cost steadily. The clock therefore
samples the machine's speed all through a run: a timer signal interrupts
whatever runs, every SAMPLE_EVERY_S, to time a short fixed reference loop
that never calls modfutaki. A job's wall time, less the time its samples
took, is multiplied by REFERENCE_S over the mean reference time of the
samples taken within WINDOW_S of it. The result reads in seconds: the time
the job takes while the reference loop takes REFERENCE_S. A change in the
program moves it as it moves the wall time; a change in the machine's speed
mostly does not.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

import mpmath

# Mean time of one reference_loop() call on the 2-core machine of the
# reference figures in README.md, at its usual speed.
REFERENCE_S = 0.0020
# Wall time between two samples.
SAMPLE_EVERY_S = 0.1
# A job is scaled by the samples from WINDOW_S before it to WINDOW_S after it.
WINDOW_S = 0.5


def reference_loop():
    """Fixed work in the program's own mix: Fraction and int arithmetic,
    dicts, and 256-bit mpf arithmetic with exp."""
    rng = random.Random(1)
    acc = Fraction(0)
    counts = {}
    for i in range(1, 70):
        acc += Fraction(rng.randint(-99, 99), rng.randint(1, 50)) * Fraction(i, 7)
        counts[i % 37] = counts.get(i % 37, 0) + acc.numerator % 1000
    with mpmath.workprec(256):
        x = mpmath.mpf(1) / 3
        for _ in range(50):
            x = x * mpmath.mpf(1.0001) + mpmath.exp(x / 1000)
    return acc, counts, x


class Clock:
    """Samples the reference loop on a timer and scales job times by it."""

    def __init__(self):
        self.starts = []      # perf_counter() at the start of each sample
        self.samples = []     # wall time of each sample's reference call
        self.stolen = 0.0     # wall time spent in samples so far
        self._busy = False

    def _sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.starts.append(start)
        self.samples.append(took)
        self.stolen += took
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def settle(self, seconds=WINDOW_S):
        """Keep sampling for `seconds`, so that the latest job has samples
        after it."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._sample()

    def scaled(self, start, end, wall_s):
        """wall_s of a job that ran from start to end, at REFERENCE_S speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return wall_s * REFERENCE_S / statistics.fmean(self.samples[lo:hi])
