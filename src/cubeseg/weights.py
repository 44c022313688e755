"""Hamming weights, exact binomial coefficients, and their prefix sums.

Everything here is integer-exact: binomials come from ``math.comb`` (no
floating point anywhere), and Python's arbitrary-precision integers make
silent overflow impossible.
"""

from __future__ import annotations

from math import comb

__all__ = [
    "hamming_weight",
    "binom",
    "h_q",
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


def prefix_hq(k: int, q: int) -> int:
    """Sum of h_q(i) over i = 0 .. k-1, computed with exact integers."""
    if k < 1:
        raise ValueError(f"prefix_hq requires k >= 1, got {k}")
    if q < 0:
        raise ValueError(f"prefix_hq requires q >= 0, got {q}")
    if q == 0:
        return k
    return sum(binom(i.bit_count(), q) for i in range(k))
