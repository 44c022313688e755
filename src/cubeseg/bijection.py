"""Weight-monotone bijections between integer intervals.

A bijection P between two equal-size intervals I and J is *special* when
h(i) <= h(P(i)) for every i, with all inequalities strict when the
intervals do not overlap. When I starts at 0 such a bijection always
exists; the finder below certifies that constructively, and the checkers
turn the resulting weighted-sum inequalities into verifiable records.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, zip_longest
from typing import Optional, Sequence

from .cube import _MAX_DIM
from .weights import interval_histogram, prefix_hq

__all__ = [
    "Interval",
    "BijectionWitness",
    "GInequalityCheck",
    "ShiftedHqCheck",
    "intervals_overlap",
    "find_special_bijection",
    "verify_special",
    "check_g_inequality",
    "check_shifted_hq_inequality",
]

# Endpoints are refused from 2^_ENDPOINT_BITS on. A weight histogram of a
# b-bit endpoint takes O(b^2) binomials of b-bit numbers: 2^2000 - 1 took
# over a minute in the Hall check, and 2^1024 - 1 took 6.9 s in the
# g-weighted sums.
_ENDPOINT_BITS = 64


@dataclass(frozen=True)
class Interval:
    """A non-empty integer interval with inclusive bounds."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0:
            raise ValueError(f"interval bounds must be non-negative, got lo={self.lo}")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}:{self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))


@dataclass(frozen=True)
class BijectionWitness:
    """A claimed special bijection, stored pair by pair.

    ``map`` lists (i, P(i)) for every i of the source interval, sorted by
    i. No validation happens at construction; ``verify_special`` rechecks
    every invariant from scratch.
    """

    source: Interval
    target: Interval
    map: tuple[tuple[int, int], ...]
    strict_required: bool


def intervals_overlap(I: Interval, J: Interval) -> bool:
    """Whether the two intervals share at least one integer."""
    return max(I.lo, J.lo) <= min(I.hi, J.hi)


def _hall_holds(I: Interval, J: Interval, need: int) -> bool:
    # Hall per threshold t: #{i in I : h(i) + need >= t} <= #{p in J : h(p) >= t}.
    # The sizes are equal, so equivalently, below every t the shifted
    # sources are at least as many as the targets.
    shifted = [0] * need + interval_histogram(I.lo, I.hi)
    pairs = zip_longest(shifted, interval_histogram(J.lo, J.hi), fillvalue=0)
    return all(spare >= 0 for spare in accumulate(a - b for a, b in pairs))


def _check_endpoint(name: str, hi: int) -> None:
    if hi.bit_length() > _ENDPOINT_BITS:
        raise ValueError(
            f"{name} ends at a {hi.bit_length()}-bit integer, past the bound of 2^{_ENDPOINT_BITS}"
        )


def find_special_bijection(I: Interval, J: Interval) -> Optional[BijectionWitness]:
    """Search for a special bijection from I onto J.

    Strictness of the weight inequalities is derived from the interval
    geometry (required exactly when the intervals do not overlap), never
    chosen by the caller. A source of weight w may use exactly the targets
    of weight >= w (+1 when strict), so the allowed target sets are nested
    and Hall's condition reduces to one count per weight threshold t: no
    more sources need weight >= t than there are targets of weight >= t.
    Both counts come from the two intervals' weight histograms, so a
    failing pair returns None after O(log^2 J.hi) binomials, before anything
    is sorted -- possible only when I.lo > 0. Otherwise both intervals are
    sorted by Hamming weight, ties in increasing order, and the k-th source
    is paired with the k-th target, which Hall's condition guarantees fits.

    Raises ``ValueError`` when the intervals hold more than 2^_MAX_DIM
    integers each, the vertex count of the largest cube, before anything
    is sorted, and when an endpoint is 2^64 or more, before any histogram.
    """
    if I.size != J.size:
        raise ValueError(f"interval sizes differ: {I.size} vs {J.size}")
    if I.size > 1 << _MAX_DIM:
        raise ValueError(f"intervals of {I.size} integers, past the bound of {1 << _MAX_DIM}")
    if J.lo <= I.lo:
        raise ValueError(f"target must start above source: j0={J.lo} <= i0={I.lo}")
    # J starts above I and the sizes are equal, so J.hi is the largest endpoint
    _check_endpoint("target", J.hi)
    strict = I.hi < J.lo
    if not _hall_holds(I, J, 1 if strict else 0):
        return None
    # Stable sorts of increasing ranges: ties stay in increasing order.
    ranked = zip(sorted(I, key=int.bit_count), sorted(J, key=int.bit_count))
    return BijectionWitness(
        source=I, target=J, map=tuple(sorted(ranked)), strict_required=strict
    )


def verify_special(w: BijectionWitness) -> bool:
    """Recheck every witness invariant from scratch.

    Deliberately shares nothing with the matcher: weights are recomputed
    locally and bijectivity is checked by sorting the raw pairs.
    """
    src, dst = w.source, w.target
    size = src.hi - src.lo + 1
    if dst.hi - dst.lo + 1 != size or len(w.map) != size:
        return False
    if sorted(i for i, _ in w.map) != list(range(src.lo, src.hi + 1)):
        return False
    if sorted(p for _, p in w.map) != list(range(dst.lo, dst.hi + 1)):
        return False
    if w.strict_required != (src.hi < dst.lo):
        return False
    for i, p in w.map:
        wi = bin(i).count("1")
        wp = bin(p).count("1")
        if wi > wp or (w.strict_required and wi == wp):
            return False
    return True


@dataclass(frozen=True)
class GInequalityCheck:
    lhs: float
    rhs: float
    holds: bool
    strict: bool


def check_g_inequality(I: Interval, J: Interval, g: Sequence) -> GInequalityCheck:
    """Compare the g-weighted sums over two intervals.

    ``g`` is a finite table indexed by Hamming weight; it must be
    non-decreasing and long enough to cover every weight occurring in
    I and J. The record reports both sums and whether lhs <= rhs holds,
    strictly or not. Each sum is ``sum(hist[w] * g[w])`` over the
    interval's weight histogram, so the cost is O(log^2 hi) binomials for
    the larger upper bound hi, plus one pass over g, not one term per
    integer. Int and ``Fraction``
    tables give exact sums; a float table is summed per weight rather
    than per integer, so ``lhs`` and ``rhs`` may differ in the last place
    from a per-element sum, and so may ``strict``.

    Raises ``ValueError`` when an endpoint is 2^64 or more, before any
    histogram.
    """
    _check_endpoint("an interval", max(I.hi, J.hi))
    if any(a > b for a, b in zip(g, g[1:])):
        raise ValueError("g table must be non-decreasing")
    src, dst = interval_histogram(I.lo, I.hi), interval_histogram(J.lo, J.hi)
    max_weight = max(w for hist in (src, dst) for w, count in enumerate(hist) if count)
    if len(g) <= max_weight:
        raise ValueError(
            f"g table covers weights up to {len(g) - 1}, need {max_weight}"
        )
    lhs = sum(count * g[w] for w, count in enumerate(src) if count)
    rhs = sum(count * g[w] for w, count in enumerate(dst) if count)
    return GInequalityCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs, strict=lhs < rhs)


@dataclass(frozen=True)
class ShiftedHqCheck:
    lhs: int
    rhs: int
    holds: bool


def check_shifted_hq_inequality(I: Interval, J: Interval, q: int) -> ShiftedHqCheck:
    """Compare sum of C(h(i), q) + C(h(i), q-1) over I against C(h(j), q) over J.

    Requires equal-size non-overlapping intervals with I starting at 0,
    the regime in which the inequality is guaranteed to hold. Both sums
    are differences of prefix sums, each read off one weight histogram:
    lhs = P_q(s) + P_{q-1}(s) and rhs = P_q(j0 + s) - P_q(j0).
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if I.size != J.size:
        raise ValueError(f"interval sizes differ: {I.size} vs {J.size}")
    if I.lo != 0:
        raise ValueError(f"source interval must start at 0, got {I.lo}")
    if intervals_overlap(I, J):
        raise ValueError(f"intervals [{I.lo}:{I.hi}] and [{J.lo}:{J.hi}] overlap")
    lhs = prefix_hq(I.size, q) + prefix_hq(I.size, q - 1)
    rhs = prefix_hq(J.hi + 1, q) - prefix_hq(J.lo, q)
    return ShiftedHqCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs)
