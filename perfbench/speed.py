"""Machine-speed correction for a shared host.

On a shared 2-core host the same pass runs up to 30% slower or faster from
one minute to the next, because of load outside this process.  A fixed
reference kernel, written here and independent of the library, is timed
between ops all through a run.  Every time the benchmark reports is scaled
by ``NOMINAL_S / median(kernel times)``: it reads as seconds on the host
running at the speed that gives the kernel ``NOMINAL_S``.  A change to the
library cannot move the kernel, so the scaling keeps every gain or loss
of the library and removes most of the host's drift.

The kernel does the library's kind of work: Horner composition of small
polynomials with ``Fraction`` coefficients, then integer convolution.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Median kernel time on the reference host.  A fixed constant: changing it
# rescales every reported time.
NOMINAL_S = 0.0020

_OUTER = [Fraction((3 * i) % 7 - 3, 1 + i % 4) for i in range(9)]
_INNER = [Fraction(0), Fraction(-2, 3), Fraction(1, 2), Fraction(1)]


def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def kernel() -> int:
    acc = [Fraction(0)]
    for c in reversed(_OUTER):
        acc = _conv(acc, _INNER)
        acc[0] += c
    ints = [c.numerator * 10**40 // c.denominator for c in acc]
    return sum(_conv(ints, ints[::-1])) & 0xFFFF


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
