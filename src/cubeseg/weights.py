"""Weight histograms of integer intervals and the prefix sums they give.

Three functions: ``weight_histogram(k)`` counts each Hamming weight among
``0 .. k-1``, ``interval_histogram(lo, hi)`` among ``lo .. hi``, and
``prefix_hq(k, q)`` is the sum of C(h(i), q) over i < k. The histogram of
``0 .. k-1`` is read off the set bits of k in O(log^2 k) binomials from
``math.comb``; ``prefix_hq`` sums each set bit's block of that histogram
in closed form, in O(q log k) binomials. Everything is integer-exact.
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb

__all__ = [
    "weight_histogram",
    "interval_histogram",
    "prefix_hq",
]


def weight_histogram(k: int) -> list[int]:
    """``hist[w]`` = number of i in ``0 .. k-1`` with Hamming weight w.

    Each set bit b of k, with ``above`` set bits of k higher than it,
    contributes the block of integers that agree with k above b, have 0 at
    b and anything below: C(b, t) of them have weight ``above + t``. The
    list has ``k.bit_length()`` entries (empty for k = 0).
    """
    if k < 0:
        raise ValueError(f"weight_histogram requires k >= 0, got {k}")
    hist = [0] * k.bit_length()
    above = 0
    for b in reversed(range(k.bit_length())):
        if k >> b & 1:
            for t in range(b + 1):
                hist[above + t] += comb(b, t)
            above += 1
    return hist


def interval_histogram(lo: int, hi: int) -> list[int]:
    """``hist[w]`` = number of i in ``lo .. hi`` with Hamming weight w.

    The difference of ``weight_histogram(hi + 1)`` and
    ``weight_histogram(lo)``; it has ``(hi + 1).bit_length()`` entries,
    of which the highest may be zero (``[8:8]`` gives ``[0, 1, 0, 0]``).
    """
    if lo < 0 or hi < lo:
        raise ValueError(f"interval_histogram requires 0 <= lo <= hi, got [{lo}:{hi}]")
    upper, lower = weight_histogram(hi + 1), weight_histogram(lo)
    return [a - b for a, b in zip_longest(upper, lower, fillvalue=0)]


def prefix_hq(k: int, q: int) -> int:
    """Sum of C(h(i), q) over i = 0 .. k-1, in O(q log k) exact binomials.

    Each set bit b of k, with ``above`` set bits of k higher than it,
    contributes the block that ``weight_histogram`` counts: C(b, t)
    integers of weight ``above + t``. Vandermonde's identity,
    C(above + t, q) = sum_j C(above, q - j) C(t, j), and
    sum_t C(b, t) C(t, j) = C(b, j) 2^(b - j) turn the block's sum of
    C(b, t) C(above + t, q) into sum_j C(above, q - j) C(b, j) 2^(b - j).
    """
    if k < 1:
        raise ValueError(f"prefix_hq requires k >= 1, got {k}")
    if q < 0:
        raise ValueError(f"prefix_hq requires q >= 0, got {q}")
    total = 0
    above = 0
    for b in reversed(range(k.bit_length())):
        if k >> b & 1:
            for j in range(max(0, q - above), min(q, b) + 1):
                total += comb(above, q - j) * comb(b, j) << (b - j)
            above += 1
    return total
