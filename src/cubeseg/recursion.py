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

The table builder tabulates the closed form and reads every maximizer
set off smaller ones, by the top bit of k. One tie rule settles every k
below 2^q: no i < k has weight q, so G_q(k) = 0, and a split
k' <= k/2 < 2^(q-1) has G_{q-1}(k') = 0 and G_q(k-k') = 0, so every
split of k ties. Write M_q(k) for the maximizer set of F_q(k). For
k >= 2^q let k = 2^p + r with 0 <= r < 2^p, so p >= q; then

    M_q(k) = A_q(r) + {2^(p-1) + y : y in {0} + M_{q-1}(r), 2^(p-1) + y > r},

a union of two disjoint ascending runs, where M_0 = M_1 (T(0) = 0 for
every split, so both rows test T(t) = 0 for t >= 1) and

    A_q(r) = {x in [1, r] : G_{q-1}(x) + G_{q-1}(r-x) = G_{q-1}(r)}.

Write T_t(k; x) for the T(t) of the split x of k, and let

    U_s(r; x) = #{j in [r-x, r) : h(j) >= s} - #{i < x : h(i) >= s},

which is never negative: Graham's bijection, in its non-strict form,
maps [0, x) to [r-x, r) without lowering any weight. The splits x of k
fall in three ranges.

- x <= r. The window [k-x, k) lies in the top octave [2^p, 2^(p+1)),
  where h(j) = 1 + h(j - 2^p), so T_t(k; x) = U_{t-1}(r; x). These vanish
  for every t >= q exactly when their sum over t >= q does, and that sum
  is G_{q-1}(r) - G_{q-1}(r-x) - G_{q-1}(x): A_q(r) is the test.
- r < x < 2^(p-1). The window holds 2^p - 1, of weight p >= q, while
  every source i < x has h(i) + 1 <= p - 1, so T_p(k; x) >= 1 and no
  such x is a maximizer.
- x = 2^(p-1) + y > r, with y <= r/2. The window is 2^(p-1) + [r-y, 2^(p-1))
  and 2^p + [0, r), the sources [0, 2^(p-1)) and 2^(p-1) + [0, y); the
  block [0, 2^(p-1)) of weights minus one cancels, leaving
  T_t(k; x) = T_{t-1}(r; y). So x is a maximizer exactly when y = 0 or
  y is one of M_{q-1}(r).

A_q(r) takes the same split one level down. If r < 2^(q-1), every
h(j) < q - 1 for j < r, every U_s with s >= q - 1 is 0 and A_q(r) is
[1, r]. Otherwise let r = 2^a + b with 0 <= b < 2^a, so a >= q - 1. The
test is symmetric under x -> r - x, and x = r always passes, so take
x <= r/2:

- x <= b. The window lies past 2^a, so
  U_s(r; x) = U_{s-1}(b; x) + #{i < x : h(i) = s - 1}, and both terms
  vanish for every s >= q - 1 exactly when x is one of A_{q-1}(b) and
  x < 2^(q-2), below the first i of weight q - 2.
- b < x < 2^(a-1). The window holds 2^a - 1, of weight a, while every
  source has weight at most a - 2, so U_a(r; x) >= 1.
- x >= 2^(a-1). Then U_s(r; x) >= C(a-1, s-1) >= 1 for 1 <= s <= a,
  and some such s is at least q - 1.

So with S = {x in A_{q-1}(b) : x < 2^(q-2)}, empty for q <= 2,

    A_q(r) = S + (r - S) + {r},

again in ascending order. Row 1 reads only itself: A_1(r) = {r} for
r >= 1, and by
induction on k the rule yields the hypercubic sizes below, so row 1 is
exactly the hypercubic row. Each entry costs the length of its tuple; no
split is scored one at a time.

A_q(r) and M_q(k) both grow with q, and M_q(k) meets [1, r] in A_q(r),
so M_q(k) = M_{q-1}(k) forces A_q(r) = A_{q-1}(r). The converse holds
too: A_q(r) = A_{q-1}(r) forces M_{q-1}(r) = M_{q-2}(r), by induction on
r. Below 2^(q-2) both rows tie at r. Below 2^(q-1), A_q(r) = [1, r], so
A_{q-1}(r) = [1, r] too; as T_t(r; x) = U_t(r; x) - #{i < x : h(i) = t-1}
lies in [0, U_t(r; x)], M_{q-2}(r) then holds all of [1, r/2], as the
tied M_{q-1}(r) does. Past 2^(q-1), with r = 2^a + b, equal S parts
leave b < 2^(q-3), where both rows tie at b, or A_{q-1}(b) = A_{q-2}(b),
where the induction gives M_{q-2}(b) = M_{q-3}(b); either way the two
rows split r alike. So M_q(k) = M_{q-1}(k) exactly when
A_q(r) = A_{q-1}(r).

Independently of the recursion, a split (k-k1, k1) of k is *hypercubic*
when k1 counts the members of {0, ..., k-1} having some fixed bit set;
every hypercubic k1 is a maximizer, and for q = 1 the two sets coincide
exactly, while for larger q the reverse inclusion can fail. So the
counterexample scan and ``cubeseg fq`` read the hypercubic sizes of k off
row 1 of the table they build; ``hypercubic_partitions`` counts them
from the bits of k alone, for ``cubeseg hypercubic``, for a table to
q = 0, which has no row 1, and for the tests.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, filterfalse, repeat
from math import comb

__all__ = [
    "RecursionTable",
    "OnlyIfCounterexample",
    "build_table",
    "hypercubic_partitions",
    "find_onlyif_counterexamples",
]

# build_table refuses a table whose rows span more than _MAX_SPLITS
# splits, the qmax * floor(kmax^2 / 4) splits x <= k / 2 of every k <= kmax
# in rows 1 to qmax, or that holds more than _MAX_CELLS values. No split is
# scored; the split count bounds the ints the maximizer tuples can list,
# which the tie tuples come near. At the split bound, (1, 16384) builds in
# ~0.03 s; (64, 2048), whose every k lies below 2^12 and so ties at every
# split of rows q >= 12, builds in ~0.07 s at ~28 MB, nearly all of it
# tie tuples. The value bound stops tables of few splits per value and
# many rows, which the split bound lets through: (2^18 - 1, 4) builds in
# ~0.35 s, and (10^8, 1), which spans no split, would need ~8 GB.
_MAX_SPLITS = 1 << 26
_MAX_CELLS = 1 << 20
# find_onlyif_counterexamples refuses to list more than _MAX_LISTED
# maximizers: (24, 2048) lists 15,534,322 in ~0.2 s and ~35 MB, its
# records sharing one excess per distinct maximizer tuple, while the
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

    Each row is the closed form F_q(k) = sum over i < k of C(h(i), q). The
    maximizer sets follow the split of k = 2^p + r (module docstring), row
    by row from q = 1: row q takes the tie tuple (1, ..., k // 2) for each
    k < 2^q and, from k = 2^q on, joins A_q(r) to the 2^(p-1) + y past r
    for y in {0} + M_{q-1}(r). The A_q(r) are built from A_{q-1} in the
    same pass, for the r <= min(kmax - 2^q, kmax // 2) that row q reads.
    Every tuple holds the ints of one shared tuple, and a tuple equal to
    the row below's at the same k is that tuple: where A_q(r) equals
    A_{q-1}(r), row q takes row q - 1's tuple whole, and elsewhere the two
    differ (module docstring). The top row is q = min(qmax, b) with
    b = kmax.bit_length(); as 2^b > kmax, row b is all ties, and every row
    past it is 0 up to kmax and all ties as row b is: it shares row b's
    tuples and copies its values.

    Raises ``ValueError`` before anything is allocated when the table would
    span more than ``_MAX_SPLITS`` splits or hold more than
    ``_MAX_CELLS`` values.
    """
    if qmax < 0:
        raise ValueError(f"qmax must be >= 0, got {qmax}")
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    splits, cells = qmax * (kmax * kmax // 4), (qmax + 1) * kmax
    if splits > _MAX_SPLITS or cells > _MAX_CELLS:
        raise ValueError(
            f"the table to qmax = {qmax}, kmax = {kmax} spans {splits} splits and holds"
            f" {cells} values, past the bounds of {_MAX_SPLITS} and {_MAX_CELLS}"
        )
    weights = [i.bit_count() for i in range(kmax)]
    bits = kmax.bit_length()  # every i < kmax has h(i) < bits
    top = min(qmax, bits)
    values = [
        [0, *accumulate(map([comb(w, q) for w in range(bits)].__getitem__, weights))]
        for q in range(top + 1)
    ]
    firsts = tuple(range(1, kmax // 2 + 1))  # firsts[x - 1] = x, one int per k'
    # the tie rule: below k = 2^q every split of k ties in row q
    ties = [(), (), *(firsts[: k // 2] for k in range(2, min(1 << top, kmax + 1)))]
    rows = [ties[:2]]  # rows[q] is row q; rows[0] is row 1 (M_0 = M_1), filled with it
    kept = [()] * (kmax // 2 + 1)  # A_0, which row 1 cuts to nothing
    for q in range(1, top + 1):
        below, low = rows[q - 1], 1 << (q - 1)
        row = below if q == 1 else [*below[:low], *ties[low : 1 << q]]
        for k in range(low, len(row)):  # a tie tuple the row below also holds is its tuple
            if len(below[k]) == len(row[k]):
                row[k] = below[k]
        # kept[r] = A_q(r): [1, r] for r < 2^(q-1), else S + (r - S) + (r,)
        span = min(kmax - 2 * low, kmax // 2) + 1
        kept_below = kept  # A_{q-1}
        kept = [a if len(a) == r else ties[2 * r] for r, a in enumerate(kept[: min(low, span)])]
        for r in range(low, span):
            part = kept_below[r - (1 << (r.bit_length() - 1))]  # A_{q-1}(b)
            s = bisect_left(part, low >> 1)  # |S|, S below 2^(q-2)
            # A_q(r) holds A_{q-1}(r) and has 2|S| + 1 ints: equal lengths, equal sets
            if 2 * s + 1 == len(kept_below[r]):
                kept.append(kept_below[r])
            else:
                part = part[:s]
                kept.append((*part, *[firsts[r - x - 1] for x in reversed(part)], firsts[r - 1]))
        for p in range(q, bits):
            half = 1 << (p - 1)
            for r in range(min(2 * half, kmax + 1 - 2 * half)):
                if q > 1 and kept[r] is kept_below[r]:  # then M_q(k) = M_{q-1}(k)
                    row.append(below[2 * half + r])
                else:
                    shifted = [firsts[half + y - 1] for y in (0, *below[r]) if half + y > r]
                    row.append((*kept[r], *shifted))
        rows.append(row)
    # a row past the top is 0 to kmax and ties at every split, as the top
    # row does: it shares the top row's tuples and copies its values
    ks = [*range(2, kmax + 1)]  # one int per k, shared by the keys of every row
    pairs = zip(range(1, qmax + 1), chain(rows[1:], repeat(rows[top])))
    maximizer_sets = {(q, k): row[k] for q, row in pairs for k in ks}
    values += map(list.copy, repeat(values[top], qmax - top))
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
    for r in range((k - 1).bit_length()):  # every r with 2^r < k
        block = 1 << r
        period = block << 1
        count = (k // period) * block + max(0, (k % period) - block)
        if 1 <= count <= half:
            result.add(count)
    return result


def find_onlyif_counterexamples(qmax: int, kmax: int) -> list[OnlyIfCounterexample]:
    """Scan for (q, k) whose maximizers are not all hypercubic.

    Results are ordered by (q, k); each record lists the maximizing k'
    values that no bit position witnesses. The scan reads each k's
    hypercubic sizes off row 1 of the table, which is exactly the
    hypercubic row (module docstring) and so lists nothing; every row
    q >= 2 holds row 1, and its record lists what it adds. Raises
    ``ValueError`` for a table past the bounds of ``build_table``, before
    building it, and, during the scan, as soon as the records would list
    more than ``_MAX_LISTED`` maximizers.
    """
    if qmax < 1:
        raise ValueError(f"qmax must be >= 1, got {qmax}")
    if kmax < 2:
        raise ValueError(f"kmax must be >= 2, got {kmax}")
    sets = build_table(qmax, kmax).maximizer_sets
    found: list[list[OnlyIfCounterexample]] = [[] for _ in range(qmax + 1)]  # by q
    listed = 0
    for k in range(2, kmax + 1):
        # row 1 is the hypercubic row, and has no excess
        last = hyper = sets[(1, k)]
        hypercubic, excess = None, ()
        for q in range(2, qmax + 1):
            # a row that adds no split shares the row below's tuple, and its excess
            if (maxi := sets[(q, k)]) is not last:
                if hypercubic is None:
                    hypercubic = frozenset(hyper).__contains__
                # the maximizer tuple is ascending, and so is what it keeps
                last, excess = maxi, tuple(filterfalse(hypercubic, maxi))
            if excess:
                listed += len(excess)
                if listed > _MAX_LISTED:
                    raise ValueError(
                        f"the counterexamples to qmax = {qmax}, kmax = {kmax} list more"
                        f" than {_MAX_LISTED} maximizers, past the bound"
                    )
                found[q].append(OnlyIfCounterexample(q=q, k=k, non_hypercubic_maximizers=excess))
    return [*chain.from_iterable(found)]
