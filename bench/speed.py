"""CPU speed sampling for timing on a shared host.

On a shared host the same code runs up to 1.6 times slower from one
second to the next, and the mix of fast and slow seconds changes from
minute to minute.  ``SpeedProbe`` samples that speed inside every timed
interval, so that the interval can be given at a reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np


class SpeedProbe:
    """Samples the speed of the CPU this process runs on.

    Every ``INTERVAL_S`` of wall time a timer signal runs a fixed probe --
    small numpy operations, like most of the program's inner loops -- in
    the main thread, wherever the program is, twice, and records the CPU
    time of the second run.  The first run refills the caches the program
    evicted, so the reading does not depend on what the program was doing;
    CPU time, not wall time, so that the program's own worker threads,
    which compete with the probe for the CPUs, do not count as a slower
    CPU.  ``scale()`` returns ``REFERENCE_S`` over the mean probe time
    since the last call: an interval's wall time times its scale is that
    interval at the probe's reference speed.  The probe costs about 3% of
    the wall time it samples, the same on every commit.
    """

    INTERVAL_S = 0.02
    REFERENCE_S = 3e-4  # about the probe's time on a 2-CPU Xeon VM

    def __init__(self):
        self.samples: list[float] = []
        self.a = np.arange(16.0)
        self.b = np.ones(16)

    def probe(self, signum=None, frame=None) -> None:
        a, b = self.a, self.b
        for _ in range(2):  # the first run refills the caches
            t0 = time.thread_time()
            for _ in range(100):
                float((a * b + a).sum())
        self.samples.append(time.thread_time() - t0)

    def start(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        if not self.samples:  # an interval shorter than INTERVAL_S
            self.probe()
        mean = statistics.fmean(self.samples)
        self.samples.clear()
        return self.REFERENCE_S / mean
