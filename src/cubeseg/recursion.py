"""The max-recursion over set sizes and its maximizer structure.

F_q(k) is defined by F_q(1) = 0 and

    F_q(k) = max over 1 <= k' <= k/2 of  F_q(k') + F_q(k-k') + F_{q-1}(k')

with the convention F_0(k) = k. The paper solves it exactly:

    F_q(k) = sum over i < k of C(h(i), q),   h the Hamming weight,

which also says which splits attain the maximum (the tail rule). For
k' <= k/2 let

    T(t) = #{j in [k-k', k) : h(j) >= t} - #{i in [0, k') : h(i) + 1 >= t}.

F_q(k') + F_{q-1}(k') sums C(h(i) + 1, q) over i < k', and Abel summation
with C(t, q) - C(t-1, q) = C(t-1, q-1) turns the loss of the split into

    F_q(k) - F_q(k-k') - F_q(k') - F_{q-1}(k') = sum over t >= 1 of T(t) C(t-1, q-1).

The strict special bijection [0, k') -> [k-k', k) of Graham's lemma maps
the sources with h(i) + 1 >= t to distinct targets with h(j) >= t, so
Hall's condition per threshold gives T(t) >= 0: no split scores above
F_q(k), and every hypercubic split (below) reaches it. As C(t-1, q-1) > 0
exactly when t >= q, k' maximizes F_q(k) exactly when T(t) = 0 for every
t >= q; the maximizer sets grow with q. The same T(t) >= 0 lets a plain
sum stand for the binomial one: the loss is 0 exactly when the tail sum

    sum over t >= q of T(t) = G_q(k) - G_q(k-k') - G_{q-1}(k')

is, where G_q(x) = sum over i < x of max(0, h(i) - q + 1) counts each i
once per threshold t >= q that h(i) reaches. So k' maximizes F_q(k)
exactly when G_{q-1}(k') + G_q(k-k') = G_q(k).

The table builder therefore tabulates the closed form and records, for
every (q, k), the splits that pass this test: the full set of maximizing
k'. A maximizer of row q is one of row q + 1, so only the top row tests
every split. Each row below keeps the maximizers of the row above that
pass its own test, three list lookups per split, and takes the row
above's tuple when none drops. The top row is tested in one pass over k,
on three packed integers. In each, field i of w bits, w a multiple of 8,
stands for k' = i + 1: the first holds the lead G_{q-1}(k') + 2^(w-1),
the second G_q(k-k'), shifted by one field per k, and the third a 1. The first plus the second minus G_q(k) times the third
holds

    G_{q-1}(k') + G_q(k-k') + 2^(w-1) - G_q(k)

in field i. The width is the narrowest that keeps G_q(kmax) below
2^(w-1). G_q(x) never falls as x grows, so every target G_q(k) and every
reversed entry G_q(k-k') is at most G_q(kmax), and so is every lead: the
tail sum at 2k' gives G_{q-1}(k') <= G_q(2k'). At k the tail sum gives
G_{q-1}(k') + G_q(k-k') <= G_q(k), so field i holds a value in
(0, 2^(w-1)]: no field carries into or borrows from the next, and the top
bit of field i, its guard bit, is set exactly when k' maximizes F_q(k).
The packed integers start empty at k = 2 and gain one field at each even
k, with the ones, the guard bits and the field mask.

Independently of the recursion, a split (k-k1, k1) of k is *hypercubic*
when k1 counts the members of {0, ..., k-1} having some fixed bit set;
every hypercubic k1 is a maximizer, and for q = 1 the two sets coincide
exactly, while for larger q the reverse inclusion can fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, filterfalse
from math import comb

__all__ = [
    "RecursionTable",
    "OnlyIfCounterexample",
    "build_table",
    "hypercubic_partitions",
    "find_onlyif_counterexamples",
]

# build_table refuses a table of more than _MAX_SPLITS splits or
# _MAX_CELLS values. At the split bound, (1, 16384) builds in ~0.6 s;
# (64, 2048), whose rows q >= 12 are 0 and tie at every split, packs row
# 12, keeps rows 11 to 1 from it and copies the rest, in ~0.3 s. The
# value bound stops tables of few splits per value and many rows, which
# the split bound lets through: (2^18 - 1, 4) builds in ~0.9 s, and
# (10^8, 1), which scores no split, would need ~8 GB.
_MAX_SPLITS = 1 << 26
_MAX_CELLS = 1 << 20
# find_onlyif_counterexamples refuses to list more than _MAX_LISTED
# maximizers: (24, 2048) lists 15,534,322 in ~2 s and ~250 MB, while the
# all-tie rows of (64, 2048) would list ~55 million.
_MAX_LISTED = 1 << 24


@dataclass
class RecursionTable:
    """Table of F values plus the argmax set of every entry.

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
    """Tabulate the recursion for all q <= qmax, k <= kmax.

    Each row is the closed form F_q(k) = sum over i < k of C(h(i), q). No
    split of k scores above F_q(k) (module docstring), so its maximizers
    are the splits k' with G_{q-1}(k') + G_q(k-k') = G_q(k). No i < kmax
    has weight b = kmax.bit_length() or more, so every row q >= b is 0 up
    to kmax, and in it every split ties: a split k' <= k/2 < 2^(b-1)
    scores F_{q-1}(k') = 0, as no i < k' has weight b - 1. The top row,
    q = min(qmax, b), reads its maximizers from the guard bits of one
    packed comparison per k, in fields sized from its own G_q(kmax),
    which bounds every field. The maximizer sets nest, so each row below
    keeps the splits of the row above that pass its own test, and takes
    the row above's tuple when all of them do. Rows past row b are copied
    from it, with its maximizer tuples, instead of built.

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
    weights = [i.bit_count() for i in range(kmax)]
    last = min(qmax, kmax.bit_length())
    values = [[0, *accumulate(comb(w, q) for w in weights)] for q in range(last + 1)]
    # tails[q][x] = G_q(x), the sum over i < x of max(0, h(i) - q + 1)
    tails = [[0, *accumulate(max(0, w - q + 1) for w in weights)] for q in range(last + 1)]
    maximizer_sets: dict[tuple[int, int], tuple[int, ...]] = {}
    ks = [*range(2, kmax + 1)]  # one int per k, shared by the keys of every row
    if last:
        tail, below = tails[last], tails[last - 1]
        # G_last(kmax) bounds every lead, reversed entry and target: no field carries.
        size = tail[kmax].bit_length() // 8 + 1
        width = 8 * size
        limit, field = 1 << (width - 1), (1 << width) - 1
        ones = guard = mask = lead = rev = 0
        row: list[tuple[int, ...]] = [(), ()]  # row[k]: the maximizers of F_q(k), q = last, ..., 1
        for k in ks:
            half = k // 2
            if k % 2:
                rev = (rev << width | tail[k - 1]) & mask
            else:
                shift = (half - 1) * width
                ones |= 1 << shift
                guard |= limit << shift
                mask |= field << shift
                lead |= (limit | below[half]) << shift
                rev = rev << width | tail[k - 1]
            hits = (lead + rev - tail[k] * ones) & guard
            found = tuple(range(1, half + 1)) if hits == guard else _marked(hits, half, size)
            maximizer_sets[(last, k)] = found
            row.append(found)
        # row q keeps the maximizers of row q + 1 that pass its own test
        for q in range(last - 1, 0, -1):
            t, b = tails[q], tails[q - 1]
            for k in ks:
                above, target = row[k], t[k]
                kept = [a for a in above if b[a] + t[k - a] == target]
                if len(kept) < len(above):
                    row[k] = tuple(kept)
                maximizer_sets[(q, k)] = row[k]
    values += [values[last][:] for _ in range(last, qmax)]
    maximizer_sets.update(
        ((q, k), maximizer_sets[(last, k)]) for q in range(last + 1, qmax + 1) for k in ks
    )
    return RecursionTable(qmax=qmax, kmax=kmax, values=values, maximizer_sets=maximizer_sets)


def _marked(hits: int, fields: int, size: int) -> tuple[int, ...]:
    """The ascending k' = i + 1 of every field i whose guard bit is set."""
    marks = hits.to_bytes(fields * size, "little")
    found = []
    at = marks.find(128)  # a guard bit is the top bit of a field's last byte
    while at >= 0:
        found.append(at // size + 1)
        at = marks.find(128, at + size)
    return tuple(found)


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
    table past the bounds of ``build_table``, before building it, and,
    during the scan, as soon as the records would list more than
    ``_MAX_LISTED`` maximizers.
    """
    if qmax < 1:
        raise ValueError(f"qmax must be >= 1, got {qmax}")
    if kmax < 2:
        raise ValueError(f"kmax must be >= 2, got {kmax}")
    table = build_table(qmax, kmax)
    hypercubic = {k: hypercubic_partitions(k) for k in range(2, kmax + 1)}
    found: list[OnlyIfCounterexample] = []
    listed = 0
    for q in range(1, qmax + 1):
        for k in range(2, kmax + 1):
            # the maximizer tuple is ascending, and so is what it keeps
            excess = tuple(filterfalse(hypercubic[k].__contains__, table.maximizer_sets[(q, k)]))
            if excess:
                listed += len(excess)
                if listed > _MAX_LISTED:
                    raise ValueError(
                        f"the counterexamples to qmax = {qmax}, kmax = {kmax} list more"
                        f" than {_MAX_LISTED} maximizers, past the bound"
                    )
                found.append(OnlyIfCounterexample(q=q, k=k, non_hypercubic_maximizers=excess))
    return found
