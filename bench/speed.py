"""Scaling of measured times to a nominal machine speed.

The benchmark runs on shared machines whose speed drifts: a fixed
pure-Python loop on a shared 2-core Xeon VM ran at 0.82 to 1.28 times
its median speed over consecutive 10 s windows.  Runs of 25 s cannot average
that out, so every timed phase interleaves short reference probes with
the maps, about one probe per 0.1 s of work.  A probe is a fixed kernel of
the kinds of work the package does: `Fraction` sums, dict stores, a form
evaluated over a prime field and a fraction-free elimination on big
integers.  A map's time is scaled by NOMINAL_S over the mean probe
duration within REF_WINDOW_S of the map, so the reported times read as if
the machine ran at the speed at which one probe takes NOMINAL_S.  Raw
times are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

clock = time.perf_counter

# Probe duration at nominal speed: about that of a quiet 2-core Xeon VM.
NOMINAL_S = 0.0035
REF_GAP_S = 0.1      # work between two probes
REF_WINDOW_S = 1.5   # probes this close to a map set its speed
MIN_PROBES = 4       # or the nearest MIN_PROBES, when the window holds fewer


_BIG = [[(7919 * i + 104729 * j + 3) ** 40 % (1 << 700) + i + j
         for j in range(8)] for i in range(8)]
_POWERS = [[pow(x, k, 101) for k in range(4)] for x in range(101)]
_TERMS = (((3, 0, 0), 5), ((1, 2, 0), 7), ((0, 1, 2), 3), ((0, 0, 3), 1))


def _kernel() -> int:
    acc, x, store = Fraction(0), 1, {}
    for i in range(1, 200):
        acc += Fraction(i, i + 7)
        x = (x * 1000003 + i) % (1 << 200)
        store[i, i % 7] = x
    # A form evaluated at points of P^2(F_101), as in a zero scan.
    zeros = 0
    for a in range(0, 101, 3):
        for b in range(0, 101, 5):
            total = 0
            for e, c in _TERMS:
                v = c
                for t, k in zip((1, a, b), e):
                    if k:
                        v = v * _POWERS[t][k] % 101
                total += v
            zeros += total % 101 == 0
    # Fraction-free elimination, as in an exact determinant.
    m = [row[:] for row in _BIG]
    prev = 1
    for k in range(len(m) - 1):
        for i in range(k + 1, len(m)):
            row_i, row_k, head = m[i], m[k], m[i][k]
            for j in range(k + 1, len(m)):
                row_i[j] = (row_i[j] * m[k][k] - head * row_k[j]) // prev
        prev = m[k][k]
    return m[-1][-1] + acc.numerator + zeros


class SpeedLog:
    """Reference probes taken during one phase, and the scale they imply."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> None:
        start = clock()
        _kernel()
        self.durations.append(clock() - start)
        self.times.append(start)

    def probe_if_due(self) -> None:
        if not self.times or clock() - self.times[-1] >= REF_GAP_S:
            self.probe()

    def scale(self, at: float) -> float:
        """Factor that turns a time measured around `at` into nominal time."""
        times = self.times
        lo = bisect.bisect_left(times, at - REF_WINDOW_S)
        hi = bisect.bisect_right(times, at + REF_WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(times)):
            if hi == len(times) or (lo > 0 and
                                    at - times[lo - 1] < times[hi] - at):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.fmean(self.durations[lo:hi])
