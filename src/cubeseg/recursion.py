"""The max-recursion over set sizes and its maximizer structure.

F_q(k) is defined by F_q(1) = 0 and

    F_q(k) = max over 1 <= k' <= k/2 of  F_q(k') + F_q(k-k') + F_{q-1}(k')

with the convention F_0(k) = k. The table builder evaluates this
recursion bottom-up and records, for every (q, k), the full set of
maximizing k'.

Every row is nondecreasing in k: F_q(1) = 0 <= F_q(2), and a maximizer k'
of F_q(k) is admissible for k+1, where F_q(k+1-k') >= F_q(k-k') by induction.
So with lead(k') = F_q(k') + F_{q-1}(k'), also nondecreasing, every split
of k scores at most lead(k/2) + F_q(k-1).

The table builder compares every split of k at once with the score s of
one split, in three packed integers. In each, field i of w bits, w a
multiple of 8, stands for k' = i + 1: the first holds lead(k') + 2^(w-1),
the second F_q(k-k'), shifted by one field per k, and the third a 1. The
first plus the second minus s times the third holds

    lead(k') + F_q(k-k') + 2^(w-1) - s

in field i. While the bound above is below 2^(w-1), so is s, and that
value lies in (0, 2^w): no field carries into or borrows from the next,
and the top bit of field i, its guard bit, is set exactly when k' scores
at least s. Whenever the bound reaches 2^(w-1), the fields are repacked at
the narrowest width that keeps it below. The marked splits are then
scored one by one, in ascending k'. Every maximizer scores at least s and
is marked, so the values and the maximizer sets are exactly those of a
scan of every split.

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

from collections.abc import Iterator
from dataclasses import dataclass

__all__ = [
    "RecursionTable",
    "OnlyIfCounterexample",
    "build_table",
    "hypercubic_partitions",
    "find_onlyif_counterexamples",
]

# While k/2 <= _PLAIN_HALF every split is scored in a plain loop, which
# costs less there than packing the rows.
_PLAIN_HALF = 48
# build_table refuses a table of more than _MAX_SPLITS splits or
# _MAX_CELLS values. At the split bound, (1, 16384) builds in ~0.7 s;
# (64, 2048), whose rows q >= 12 are 0 and tie at every split, builds two
# such rows and copies the rest, in ~1.2 s. The value bound stops tables
# of few splits per value and many rows, which the split bound lets
# through: (2^18 - 1, 4) builds in ~1 s, and (10^8, 1), which scores no
# split, would need ~8 GB.
_MAX_SPLITS = 1 << 26
_MAX_CELLS = 1 << 20


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
    and scores, in ascending k', the splits that reach it. While
    k/2 <= _PLAIN_HALF those are all k/2 splits. Past it, the packed
    comparison of the module docstring marks them: field i of w bits holds

        lead(k') + F_q(k-k') + 2^(w-1) - seed,   k' = i + 1,

    and its guard bit 2^(w-1) is set exactly when k' reaches the seed, as
    w keeps every score below 2^(w-1). So the result equals a scan of all
    qmax * floor(kmax^2 / 4) splits, which is also the worst case, when
    every split ties. Row q depends on row q - 1 alone, so once two rows
    are equal every later row equals them too, and is copied with its
    maximizer tuples instead of built.

    Raises ``ValueError`` before anything is allocated when the table would
    score more than ``_MAX_SPLITS`` splits or hold more than
    ``_MAX_CELLS`` values.
    """
    if qmax < 0:
        raise ValueError(f"qmax must be >= 0, got {qmax}")
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    scored, cells = qmax * (kmax * kmax // 4), (qmax + 1) * kmax
    if scored > _MAX_SPLITS or cells > _MAX_CELLS:
        raise ValueError(
            f"the table to qmax = {qmax}, kmax = {kmax} scores {scored} splits and holds"
            f" {cells} values, past the bounds of {_MAX_SPLITS} and {_MAX_CELLS}"
        )
    values = [list(range(kmax + 1))]  # F_0(k) = k
    maximizer_sets: dict[tuple[int, int], tuple[int, ...]] = {}
    for q in range(1, qmax + 1):
        prev = values[q - 1]
        if q >= 2 and prev == values[q - 2]:
            # Row q is the recursion of row q - 1 on the same inputs.
            values.append(prev[:])
            for k in range(2, kmax + 1):
                maximizer_sets[(q, k)] = maximizer_sets[(q - 1, k)]
            continue
        row = [0] * (kmax + 1)
        lead = [0] * (kmax + 1)  # F_q(k') + F_{q-1}(k'), set with row[k']
        lead[1] = prev[1]
        limit = 0  # 2^(w-1), the guard bit of a field; 0 until the row is packed
        for k in range(2, kmax + 1):
            half = k // 2
            top = k - (1 << ((k - 1).bit_length() - 1))
            best = lead[top] + row[k - top]
            if half <= _PLAIN_HALF:
                splits = range(1, half + 1)
            else:
                # Every score is at most lead(k/2) + F_q(k-1), as both rows
                # are nondecreasing; below 2^(w-1), no field carries.
                bound = lead[half] + row[k - 1]
                if bound >= limit:
                    size = bound.bit_length() // 8 + 1
                    width, limit = 8 * size, 1 << (8 * size - 1)
                    ones = _pack([1] * half, size)
                    guard = ones << (width - 1)
                    mask = (ones << width) - ones
                    packed_lead = _pack(lead[1:half + 1], size) | guard
                    packed_rev = _pack(row[k - 1:k - 1 - half:-1], size)
                elif k % 2:
                    packed_rev = (packed_rev << width | row[k - 1]) & mask
                else:
                    shift = (half - 1) * width
                    ones |= 1 << shift
                    guard |= limit << shift
                    mask |= mask << width
                    packed_lead |= (limit | lead[half]) << shift
                    packed_rev = packed_rev << width | row[k - 1]
                hits = (packed_lead + packed_rev - best * ones) & guard
                splits = range(1, half + 1) if hits == guard else _marked(hits, half, size)
            args: list[int] = []
            for kp in splits:
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


def _pack(fields: list[int], size: int) -> int:
    """The integer whose field i of ``size`` bytes holds ``fields[i]``."""
    return int.from_bytes(b"".join(f.to_bytes(size, "little") for f in fields), "little")


def _marked(hits: int, fields: int, size: int) -> Iterator[int]:
    """Yield k' = i + 1, ascending, for every field i whose guard bit is set."""
    marks = hits.to_bytes(fields * size, "little")
    at = marks.find(128)  # a guard bit is the top bit of a field's last byte
    while at >= 0:
        yield at // size + 1
        at = marks.find(128, at + size)


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
    values that no bit position witnesses. Raises ``ValueError`` for a
    table past the bounds of ``build_table``, before building it.
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
