"""The reference loop: a gauge of how fast the machine runs right now.

On a shared 2-core virtual machine the speed of CPU-bound Python drifted by
up to 40 % over minutes, moving a fixed piece of pure-Python work and the
passes alike.  Passes time this loop as they run, and ``run.py`` scales
each stretch of a pass by ``NOMINAL_S`` over the gauges taken around it,
so every reported time reads as the time on a machine that runs this loop
in ``NOMINAL_S``.  The loop mixes small-integer arithmetic, dict stores,
``Fraction`` sums and bit-mask set work, as the package does.  It is the
benchmark's own code, so a change to forestcut cannot move it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.008
REPEATS = 3
_MASKS = [(i * 0x9E3779B97F4A7C15) >> 24 & (1 << 40) - 1 for i in range(1, 121)]


def _loop() -> float:
    t0 = perf_counter()
    table = {}
    acc = 0
    for i in range(16_000):
        acc += i * i % 7
        table[i & 1023] = acc
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(i % 97 + 1, i % 89 + 1)
    seen = set()
    for a in _MASKS:
        for b in _MASKS[:50]:
            c = a & ~b
            acc += c.bit_count()
            seen.add(c & 1023)
    return perf_counter() - t0


def reference_s() -> float:
    """Median time of a few runs of the loop."""
    return statistics.median(_loop() for _ in range(REPEATS))
