"""Machine-speed reference for scaling measured times.

On a small shared machine the speed of one core drifts, by up to a factor
of two over minutes, as neighbouring load comes and goes; that swamps any
change worth measuring.  `reference_s` times a fixed computation in the
benchmark's own code with the character of matchlab's kernels: a bitmask
DP whose dict memo grows to 32k entries (so, like the package's memo
tables, it feels contention for the shared caches), Fraction arithmetic
and seeded random draws.

The runner times the reference before the first operation of a pass and
after every operation, and scales each operation's time by NOMINAL_S over
the mean of the two references around it: times are reported as seconds
at the speed where the reference takes NOMINAL_S.  Nothing the program
does can change the reference.

The correction is partial.  Over runs whose unscaled pass times spread
by a factor of 1.8, exact-reports slowed about as much as the reference,
certify by about 0.87 and sampling by about 0.75 of it (in log terms), so
scaled times still move a little with the machine's state.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# About the reference's median on the 2-core machine the baseline was
# recorded on (it read from 8 to 16 ms there as the load drifted).
NOMINAL_S = 0.010


def _reference() -> int:
    memo: dict[int, int] = {}

    def rec(m: int) -> int:
        if m == 0:
            return 1
        got = memo.get(m)
        if got is not None:
            return got
        rest = m & (m - 1)
        avail = rest
        total = 0
        while avail:
            bit = avail & -avail
            avail ^= bit
            total += rec(rest ^ bit)
        memo[m] = total
        return total

    q = Fraction(0)
    for i in range(1, 500):
        q += Fraction(i, 3 * i + 1) * Fraction(7, i + 2)
    rng = random.Random(5)
    s = 0
    for _ in range(8000):
        s += rng.randrange(1000) ^ (s & 1023)
    return rec((1 << 16) - 1) + q.numerator % 7 + s


def reference_s() -> float:
    t0 = time.perf_counter()
    _reference()
    return time.perf_counter() - t0
