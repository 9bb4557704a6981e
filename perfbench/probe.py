"""A host-speed probe that runs a fixed kernel on a timer during a pass.

The benchmark's host is shared, and steal time stays near zero while the
processor's own speed for this process moves: the same sweep pass took
7 to 11 s over six minutes of back-to-back runs, and a 50 ms kernel took
57 to 143 ms within one 30 s run.  No statistic over the program's
passes alone removes that.  During a timed call the probe runs a small
pure-Python kernel, which does the same work in every version of the
benchmark and calls no ztwo code, from a SIGALRM handler every
INTERVAL_S of wall time.  Each item's gap is then scaled by the mean
kernel time within WINDOW_S of the item, to the speed at which the
kernel takes REFERENCE_S.  A change to the program moves the gaps and
not the kernel.
"""

import math
import signal
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter

INTERVAL_S = 0.01
WINDOW_S = 0.05
# about the kernel's mean time under the probe on the host the benchmark
# was written on (Python 3.11.7, 2 virtual cores) when it ran fastest
REFERENCE_S = 0.0004


def kernel():
    """Count primitive reduced forms of the first discriminants -3, -4, -7, -8, ..."""
    forms = 0
    for k in range(1, 60):
        D = -4 * k - 3 if k % 2 else -4 * k
        a = 1
        while 3 * a * a <= -D:
            for b in range(-a + 1, a + 1):
                if (b * b - D) % (4 * a) == 0:
                    c = (b * b - D) // (4 * a)
                    if c >= a and math.gcd(math.gcd(a, b), c) == 1:
                        forms += 1
            a += 1
    return forms


class Probe:
    """Runs the kernel every INTERVAL_S from a SIGALRM handler while entered.

    clock() is perf_counter() less the time spent in the handler, so an
    interval on it is the program's own time.
    """

    def __init__(self):
        self.spent = 0.0
        self.samples = []  # (clock() when a kernel run began, its seconds)

    def clock(self):
        return perf_counter() - self.spent

    def _tick(self, signum, frame):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.samples.append((t0 - self.spent, t1 - t0))
        self.spent += perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_mean(self):
        return sum(d for _, d in self.samples) / len(self.samples)

    def scaled_gaps(self, start, stamps):
        """Item gaps in seconds at the speed where the kernel takes REFERENCE_S.

        stamps are clock() values; an item with no kernel run within
        WINDOW_S takes the nearest one.
        """
        if not self.samples:
            raise ValueError("the probe ran no kernel during the call")
        times = [t for t, _ in self.samples]
        total = [0.0, *accumulate(d for _, d in self.samples)]
        out = []
        prev = start
        for stamp in stamps:
            lo = bisect_left(times, prev - WINDOW_S)
            hi = bisect_right(times, stamp + WINDOW_S)
            if lo == hi:
                lo, hi = max(0, lo - 1), min(len(times), lo + 1)
            kernel_s = (total[hi] - total[lo]) / (hi - lo)
            out.append((stamp - prev) * REFERENCE_S / kernel_s)
            prev = stamp
        return out
