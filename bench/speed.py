"""Times scaled to a reference machine speed.

The machine this benchmark was built on is shared: its speed switches
between states up to 2x apart, each lasting from under a second to
minutes, so the same work timed twice can differ by a third.  The benchmark
therefore runs a fixed pure-Python probe (exact `Fraction` arithmetic and dict and
tuple traffic, like the program's) every PROBE_EVERY_S seconds, between
items and inside long ones, leaves the probing out of every measured
interval, and scales each stretch between probes by REFERENCE_S over the
mean probe time on either side of it.  A scaled time is what
the interval would have taken at the reference speed.  On the program's
items the probe's time tracks the item's time closely (correlation 0.94),
which brings the run-to-run spread from about 20% down to a few percent.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PROBE_ROUNDS = 400
PROBE_EVERY_S = 0.05
# The probe time that defines the reference speed.  It only fixes the unit:
# scaled times read as seconds on a machine where one probe takes 0.9 ms,
# which is the machine the baseline was taken on (2 cores, Python 3.11) at
# its fastest; at other times its probes took up to 2 ms.
REFERENCE_S = 0.00090


def probe() -> int:
    acc = Fraction(0)
    seen = {}
    for i in range(1, PROBE_ROUNDS + 1):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        seen[i, i % 5] = (acc.numerator % 97, acc.denominator % 89)
    return len(seen)


class SpeedLog:
    """Probe samples taken during a run, and the scaling they imply."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probe_s: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        probe()
        probe()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.probe_s.append((end - start) / 2)

    def maybe_sample(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] \
                >= PROBE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean probe time from the last sample before
        `start` to the first one after `end`."""
        lo = max(0, bisect_right(self.ends, start) - 1)
        hi = min(len(self.starts), bisect_left(self.starts, end) + 1)
        window = self.probe_s[lo:hi] or self.probe_s
        return REFERENCE_S * len(window) / sum(window)

    def scaled(self, start: float, end: float) -> float:
        """Seconds [start, end] would have taken at the reference speed.
        Samples taken inside it are left out, and each stretch between them
        is scaled by the samples on either side of that stretch."""
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.ends, end)
        edges = [start]
        for i in range(lo, hi):
            edges += [self.starts[i], self.ends[i]]
        edges.append(end)
        return sum((b - a) * self.factor(a, b)
                   for a, b in zip(edges[::2], edges[1::2]))
