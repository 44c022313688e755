"""Hamming weights, exact binomial coefficients, and their prefix sums.

Everything here is integer-exact: binomials come from ``math.comb`` (no
floating point anywhere), and Python's arbitrary-precision integers make
silent overflow impossible. Prefix sums are read off the weight histogram
of ``0 .. k-1``, which the set bits of k determine in O(log^2 k) binomials.
"""

from __future__ import annotations

from math import comb

__all__ = [
    "hamming_weight",
    "binom",
    "h_q",
    "weight_histogram",
    "prefix_hq",
]


def hamming_weight(i: int) -> int:
    """Number of 1-bits in the binary representation of ``i``."""
    if i < 0:
        raise ValueError(f"hamming_weight requires i >= 0, got {i}")
    return i.bit_count()


def binom(m: int, q: int) -> int:
    """Exact C(m, q); 0 when q < 0 or q > m."""
    if m < 0:
        raise ValueError(f"binom requires m >= 0, got {m}")
    return comb(m, q) if q >= 0 else 0


def h_q(i: int, q: int) -> int:
    """C(h(i), q) where h(i) is the Hamming weight of ``i``.

    Vanishes silently when q exceeds the weight of ``i``.
    """
    if q < 0:
        raise ValueError(f"h_q requires q >= 0, got {q}")
    return binom(hamming_weight(i), q)


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


def prefix_hq(k: int, q: int) -> int:
    """Sum of h_q(i) over i = 0 .. k-1: sum of hist[w] * C(w, q).

    ``hist`` is ``weight_histogram(k)``, so the cost is O(log^2 k) exact
    binomials, not one per integer below k.
    """
    if k < 1:
        raise ValueError(f"prefix_hq requires k >= 1, got {k}")
    if q < 0:
        raise ValueError(f"prefix_hq requires q >= 0, got {q}")
    return sum(count * comb(w, q) for w, count in enumerate(weight_histogram(k)))
