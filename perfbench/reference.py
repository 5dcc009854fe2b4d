"""A fixed reference loop that tells how fast the host runs Python right now.

On a shared host, other tenants slow every instruction of this process, by
up to 2x, for milliseconds to minutes at a time, and the code the benchmark
times, which is dominated by dictionary lookups and exact arithmetic, slows
more than a small compute loop does.  Neither the fastest nor the median
pass of a run removes that.  On a 2-vCPU Xeon VM, eight 25-second windows of
disk-lines(96) passes gave median ``check`` and ``minimize`` times that
differed by 16% and 17% (IQR / median) between windows.

So the benchmark times this loop just before and just after each phase of a
pass, and divides the phase's time by the loop's mean time around it.  Like
the pipeline, the loop looks up tuple keys in a dictionary larger than a
core's L2 cache, sums and sorts fractions, and allocates tuples, so the host
slows both by about the same factor.  On the same VM, five 30-second runs of
disk-lines-reduce had median raw pipeline times from 1.19 to 1.91 s, while
the median load factor went from 1.07 to 1.66; the corrected ``pipeline_s``
stayed between 1.10 and 1.18 s.  The loop does not touch ``cadreduce``, so a
change to the package moves the corrected time by as much as it moves the
raw one.

A quotient times ``NOMINAL_S`` reads as seconds on an unloaded host.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# About the loop's fastest time on a 2-vCPU Xeon VM with Python 3.11.7.
NOMINAL_S = 0.0175

# About 26 MB: several times a core's L2 cache, so that most lookups miss it.
_TABLE = {(i, i * 7 % 1013, i * 31 % 17): Fraction(i, 97) for i in range(100_000)}
_ORDER = random.Random(2411).sample(list(_TABLE), 6_000)


def reference_loop() -> tuple:
    acc = Fraction(0)
    rows = []
    for key in _ORDER:
        value = _TABLE[key]
        rows.append((key[1], value))
        if key[2] == 3:
            acc += value
    rows.sort()
    return acc, rows[0], rows[-1]


def timed() -> float:
    """One run of the reference loop, in seconds."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def load_factor(before: float, after: float) -> float:
    """How much slower than nominal the host ran, from the reference times
    just before and just after a measurement."""
    return (before + after) / (2 * NOMINAL_S)
