"""The max-recursion over set sizes and its maximizer structure.

F_q(k) is defined by F_q(1) = 0 and

    F_q(k) = max over 1 <= k' <= k/2 of  F_q(k') + F_q(k-k') + F_{q-1}(k')

with the convention F_0(k) = k. The table builder evaluates this
recursion bottom-up and records, for every (q, k), the full set of
maximizing k'.

Every row is nondecreasing in k: F_q(1) = 0 <= F_q(2), and a maximizer k'
of F_q(k) is admissible for k+1, where F_q(k+1-k') >= F_q(k-k') by induction.
So with lead(k') = F_q(k') + F_{q-1}(k'), also nondecreasing, every split
in a block [a, b] scores at most lead(b) + F_q(k-a). A block whose bound
falls below the score of one known split holds no maximizer and is
skipped, which keeps the values and the maximizer sets exact.

The closed form F_q(k) = sum over i < k of C(h(i), q), h the Hamming
weight, also says which splits attain the maximum (the tail rule). For
k' <= k/2 let

    T(t) = #{j in [k-k', k) : h(j) >= t} - #{i in [0, k') : h(i) + 1 >= t}.

F_q(k') + F_{q-1}(k') sums C(h(i) + 1, q) over i < k', and Abel summation
with C(t, q) - C(t-1, q) = C(t-1, q-1) turns the loss of the split into

    F_q(k) - F_q(k-k') - F_q(k') - F_{q-1}(k') = sum over t >= 1 of T(t) C(t-1, q-1).

The strict special bijection [0, k') -> [k-k', k) of Graham's lemma maps
the sources with h(i) + 1 >= t to distinct targets with h(j) >= t, so
Hall's condition per threshold gives T(t) >= 0. As C(t-1, q-1) > 0 exactly
when t >= q, k' maximizes F_q(k) exactly when T(t) = 0 for every t >= q;
the maximizer sets grow with q.

Independently of the recursion, a split (k-k1, k1) of k is *hypercubic*
when k1 counts the members of {0, ..., k-1} having some fixed bit set;
every hypercubic k1 is a maximizer, and for q = 1 the two sets coincide
exactly, while for larger q the reverse inclusion can fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, ge

__all__ = [
    "RecursionTable",
    "OnlyIfCounterexample",
    "build_table",
    "hypercubic_partitions",
    "find_onlyif_counterexamples",
]

# Splits k' are scored in blocks of _BLOCK consecutive sizes, each skipped
# when its bound cannot reach the best score seen; while k/2 <= _PLAIN_HALF,
# [1, k/2] is one block, where computing the bounds would cost more than
# the splits they skip.
_BLOCK = 16
_PLAIN_HALF = 128


@dataclass
class RecursionTable:
    """Bottom-up table of F values plus the argmax set of every entry.

    ``values[q][k]`` holds F_q(k) for 0 <= q <= qmax, 1 <= k <= kmax
    (index 0 of each row is unused). ``maximizer_sets[(q, k)]`` holds the
    ascending tuple of maximizing k' for q >= 1, k >= 2. Immutable once
    built; queries are safe concurrently.
    """

    qmax: int
    kmax: int
    values: list[list[int]]
    maximizer_sets: dict[tuple[int, int], tuple[int, ...]]

    def value(self, q: int, k: int) -> int:
        if q < 0 or q > self.qmax:
            raise ValueError(f"q must be in [0, {self.qmax}], got {q}")
        if k < 1 or k > self.kmax:
            raise ValueError(f"k must be in [1, {self.kmax}], got {k}")
        return self.values[q][k]


@dataclass(frozen=True)
class OnlyIfCounterexample:
    """A pair (q, k) whose maximizer set strictly exceeds the hypercubic set."""

    q: int
    k: int
    non_hypercubic_maximizers: tuple[int, ...]


def build_table(qmax: int, kmax: int) -> RecursionTable:
    """Evaluate the recursion bottom-up for all q <= qmax, k <= kmax.

    Each k starts from the score of its top-bit split k - 2^floor(log2(k-1))
    and scores only the blocks of splits whose bound lead(b) + F_q(k-a)
    (module docstring) reaches it. Every maximizer lies in such a block, so
    the result equals a scan of all q * sum(k // 2) splits. That count stays
    the worst case; (6, 2048) scores 1.3 M of its 6.3 M splits.
    """
    if qmax < 0:
        raise ValueError(f"qmax must be >= 0, got {qmax}")
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    values = [list(range(kmax + 1))]  # F_0(k) = k
    maximizer_sets: dict[tuple[int, int], tuple[int, ...]] = {}
    for q in range(1, qmax + 1):
        row = [0] * (kmax + 1)
        prev = values[q - 1]
        lead = [0] * (kmax + 1)  # F_q(k') + F_{q-1}(k'), set with row[k']
        lead[1] = prev[1]
        for k in range(2, kmax + 1):
            half = k // 2
            top = k - (1 << ((k - 1).bit_length() - 1))
            best = lead[top] + row[k - top]
            if half <= _PLAIN_HALF:
                width, starts = half, (1,)
            else:
                # The last block's bound may read lead past k/2: still a bound
                # as lead is nondecreasing, and already set as k - half > _BLOCK.
                width = _BLOCK
                bounds = map(
                    add, lead[width:half + width:width], row[k - 1:k - 1 - half:-width]
                )
                starts = compress(
                    range(1, half + 1, width), map(ge, bounds, repeat(best))
                )
            args: list[int] = []
            for a in starts:
                for kp in range(a, min(a + width, half + 1)):
                    candidate = lead[kp] + row[k - kp]
                    if candidate > best:
                        best = candidate
                        args = [kp]
                    elif candidate == best:
                        args.append(kp)
            row[k] = best
            lead[k] = best + prev[k]
            maximizer_sets[(q, k)] = tuple(args)
        values.append(row)
    return RecursionTable(qmax=qmax, kmax=kmax, values=values, maximizer_sets=maximizer_sets)


def hypercubic_partitions(k: int) -> set[int]:
    """All light-side sizes of hypercubic partitions of k.

    For each bit position r, counts how many of 0, ..., k-1 have bit r
    set, using the closed form floor(k / 2^(r+1)) * 2^r +
    max(0, k mod 2^(r+1) - 2^r). Counts landing in [1, k//2] qualify.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    half = k // 2
    result: set[int] = set()
    r = 0
    while (1 << r) < k:
        block = 1 << r
        period = block << 1
        count = (k // period) * block + max(0, (k % period) - block)
        if 1 <= count <= half:
            result.add(count)
        r += 1
    return result


def find_onlyif_counterexamples(qmax: int, kmax: int) -> list[OnlyIfCounterexample]:
    """Scan for (q, k) whose maximizers are not all hypercubic.

    Results are ordered by (q, k); each record lists the maximizing k'
    values that no bit position witnesses.
    """
    if qmax < 1:
        raise ValueError(f"qmax must be >= 1, got {qmax}")
    if kmax < 2:
        raise ValueError(f"kmax must be >= 2, got {kmax}")
    table = build_table(qmax, kmax)
    hypercubic = {k: hypercubic_partitions(k) for k in range(2, kmax + 1)}
    found: list[OnlyIfCounterexample] = []
    for q in range(1, qmax + 1):
        for k in range(2, kmax + 1):
            excess = set(table.maximizer_sets[(q, k)]) - hypercubic[k]
            if excess:
                found.append(
                    OnlyIfCounterexample(
                        q=q, k=k, non_hypercubic_maximizers=tuple(sorted(excess))
                    )
                )
    return found
