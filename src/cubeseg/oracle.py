"""Ground-truth maxima by exhaustive search over all k-subsets.

The oracle decides every k-element vertex subset of the n-cube in
lexicographic order, scoring it or cutting it with a subtree that cannot
change the result, and compares the maximum against the prefix-sum
formula. The scan shares nothing with the two counting kernels;
``is_optimal_set`` checks one given set with the naive kernel. Subsets are
walked as a recursion over the tree of their prefixes: each call picks
the next member and passes the new prefix's indicator and count down, so
the call stack holds the prefix and each prefix is pushed once. The call
that makes the last pick scores it over its whole range in one loop.

Where every k-set holds the same count, no walk is needed. There are
three such cases: at q = 0 a set's 0-subcubes are its k vertices; below
k = 2^q no set holds a q-subcube, which has 2^q vertices; and from
k = 2^n - 1 on a set misses at most one vertex. The whole cube holds
C(n, q) * 2^(n-q) q-subcubes and a missing vertex takes the C(n, q)
through it, so such a set holds C(n, q) * (2^(n-q) - (2^n - k)), which
at q = 0 is k. In each case ``_scan``, the one entry of
``brute_force_mq`` and of the sub-scans below, returns that count, the
first ``argmax_cap`` sets in scan order and C(2^n, k) decided. It hands
every other size to the walk, where two k-sets differ in count.

The walk runs in one of two directions, which ``_scan`` chooses from
(n, k, q): upward it picks the k kept vertices of S from the empty set,
downward the r = 2^n - k removed vertices of T from the whole cube. It
runs upward wherever the split ceiling below applies (``_splits``),
which only the upward walk takes and which decides those sizes many
times faster, and elsewhere from the shorter side: downward when
2k > 2^n.
Picking a vertex v flips its bit in the set's indicator. Upward this adds
the q-subcubes of the new prefix whose highest vertex is v, the
per-vertex reading of the paper's sum over i < k of C(h(i), q).
Downward it subtracts the q-subcubes of the current set through v,
counted before v is removed, from the C(n, q) * 2^(n-q) of the whole
cube.

Both directions visit the sets in the same order. S1 < S2 exactly when
the smallest element of S1 △ S2 lies in S1, and S1 △ S2 = T1 △ T2, so S
ascending is T descending. Downward each member of T is picked from the
top of its range, which takes T in reverse lexicographic order, and the
counts and the capped argmax list are the same either way.

A vertex is scored against a table that each scan fills as it goes: for
each vertex v, the 2^n-bit masks of every q-subcube through v, each
without v itself, sorted ascending. A set holds such a subcube exactly
when its indicator ``bits`` has ``bits & m == m``, which needs m <= bits,
so the scoring loop stops at the first mask past ``bits``: every later
one is past it too. Upward the prefix lies below v, so the subcubes that
fit are those whose highest vertex is v, and the sort puts them first.
Picks before a fixed depth skip the table: upward a pick scores 0 while
fewer than 2^q - 1 members, which a q-subcube needs besides v, precede
it, and downward the first removal's C(n, q) is taken before the walk
starts: nothing is removed before it, so all the subcubes through it are
there to take. A table keeps at most
``_TABLE_BYTES`` (64 MiB) of masks; a vertex past it has its masks built
again at each use. The masks are built here, from one shape per
choice of q free coordinates, and not taken from ``cube``'s
free-coordinate tables: the oracle is the check that the kernels are
right, and a fault in a shared table would pass it.

The walk is a branch and bound that changes no result. Before it enters
the subtree below a pick, it takes a ceiling, an upper bound on m_q of
every set in the subtree, and cuts the subtree when the ceiling is below
the best count so far, or equal to it once the argmax list holds
``argmax_cap`` sets: no set there could raise the maximum or enter the
list. A cut subtree's sets are counted as scanned all the same, so every
set is scored or cut, and the maximum, the argmax list and the count are
those of the full scan.
- Downward the ceiling is the current count, since a removal never adds
  a subcube.
- Upward it is the smaller of two bounds. One is the count plus C(n, q)
  for each scored pick still to come, the most subcubes a pick can top.
  The other is the m_q of the universe P + [v, 2^n), the picked vertices
  P and the ones still pickable, which holds every set below. Levels
  with at least ``_TRACKED`` picks left keep that count: it starts at the
  whole cube's and drops, as the loop passes each v, by the subcubes
  through v inside the universe. With nothing picked these are the
  C(n - h(v), q) whose lowest vertex v is; below that, v's masks in the
  same table find them. Once the universe's ceiling falls short, every
  later sibling is cut with it.
- Upward there is a third, the split ceiling of the paper's second proof
  [BR1990]. Split a set S along its top coordinate into the low half L
  and the top half H, each read as a set of the (n-1)-cube. A q-subcube
  of S lies in L, lies in H, or crosses the split as a (q-1)-subcube of
  L & H doubled, so m_q(S) = m_q(L) + m_q(H) + m_{q-1}(L & H). At a
  level whose prefix P is nonempty and lies below 2^(n-1), every set in
  the subtrees of its pick 2^(n-1) and of that pick's later siblings has
  L = P, whose m_q is the level's count, and a top half of the ``left``
  picks still to come. With M_{n-1}(j, r) the most r-subcubes a j-set
  of the (n-1)-cube holds, m_q(H) <= M_{n-1}(left, q), and L & H has at
  most min(left, k - left) members; M grows with j, since a vertex added
  to a set takes no subcube away, so m_{q-1}(L & H) <= M_{n-1}(min(left,
  k - left), q - 1). When the sum of the three is below the bar, the
  level returns and counts the C(2^(n-1), left) sets it skips as
  scanned. Before the last pick the test is made once, as the level
  begins. Each M_{n-1} is the maximum of the oracle's own scan of the
  (n-1)-cube at cap 0, through ``_scan``, made at its first use and kept
  for one ``brute_force_mq`` call (``_top_half``): the [G1970] step that
  closes the paper's induction is replaced by computation, and a uniform
  size, such as M_{n-1}(j, 0) = j, is its count. The sub-scans are not
  charged to the budget: by Vandermonde, C(2^(n-1), j) <= C(2^n, k) for
  the j <= k they ask about, so each decides at most as many sets as the
  scan that asks, and each is made once per call. A floor (``_splits``:
  dimension at most ``_SPLIT_DIM``, at least ``_SPLIT_SCAN`` sets) keeps
  sparse scans of larger cubes and tiny scans off it, where the
  sub-scans would cost more than they cut.

Once the argmax list is full, the walk also cuts by symmetry. m_q is
invariant under the 2^n * n! automorphisms of the cube, the XOR
translations and the coordinate permutations. The lexicographically
least set S* of an orbit holds 0 (translate by its minimum), and its
second member is some 2^j - 1 (permute that member's one-bits to the
lowest coordinates). So a first or second pick that starts no such set,
and has picks still to come, is cut with its subtree, whose sets count as
scanned (``_leads``; it is asked only where no ceiling cuts first):
- upward, a first pick other than 0, and a second pick v with
  v & (v + 1) != 0;
- downward, where the picks are the removed set's smallest members, a
  first pick of 0, which leaves 0 out of the set, and after a first pick
  of 1 every second pick but 2, which leaves 2 as the set's second member.
This changes no result, at any cap. A set S in a cut subtree is not S*,
so S* < S lies outside the subtree and was decided before it: either it
was scored, so best >= m_q(S*) = m_q(S), or a ceiling below a bar of at
most best + 1 cut it. The list was full and S comes after every listed
set, so S could neither raise the maximum nor enter the list. A last
pick is scored all the same: cutting it would save one set's masks.

The ceilings and the symmetry cut hold for every set, so no result
depends on the theorem under test. The split ceiling reads no formula
either: its M_{n-1} are maxima of exhaustive scans, which rest on the
same ceilings one dimension down, and ``prefix_hq`` is read only for
``matches_formula``. The theorem only makes the cut deep:
the first set in scan order is the initial segment, so the best count is
final after one leaf, and the C(32, 16) sets of (5, 16, 4) are decided
in a fraction of a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from sys import getsizeof

from .cube import VertexSet, _check_dim, _check_k, _check_q, count_subcubes_naive
from .weights import prefix_hq

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_ARGMAX_CAP",
    "BudgetExceeded",
    "OracleResult",
    "brute_force_mq",
    "is_optimal_set",
]

# Covers all of n = 4 (worst case C(16, 8) = 12870) and useful n = 5 slices.
DEFAULT_BUDGET = 20_000_000
DEFAULT_ARGMAX_CAP = 4

# Largest scan started whatever the budget. The walk recurses once per
# member it picks, k - 1 calls deep upward and 2^n - k - 1 downward, and
# the split ceiling's sub-scans of smaller cubes nest below a pick. Within
# 2^64 subsets every size of the 6-cube is scanned, upward to k = 62, and
# the deepest stack is that of (6, 59, q), 0 < q < 6: 74 nested calls of
# brute_force_mq, the entry, the walks and the sub-scans, and 77 frames
# with the mask table's below a leaf (a recursion limit of 79 from a
# script's top level), far below the interpreter's default of 1000.
_MAX_SCAN = 1 << 64


class BudgetExceeded(Exception):
    """The subset space is larger than the enumeration budget allows.

    ``required`` is C(2^n, k), or, when m = min(k, 2^n - k) is past 64,
    its lower bound 2^m, which is past every scan bound already.
    """

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        # str() refuses integers past the interpreter's digit limit, and
        # C(2^16, 2^15) has ~19,700 digits: past 2^64, name the power of two
        needs = required if required <= _MAX_SCAN else f"more than 2^{required.bit_length() - 1}"
        super().__init__(f"enumeration needs {needs} subsets, budget allows {budget}")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one exhaustive scan.

    ``argmax_examples`` holds the lexicographically smallest maximizing
    sets, capped; ``matches_formula`` records whether the maximum equals
    the prefix-sum value for (k, q). ``total_subsets_scanned`` counts the
    sets decided, scored or cut unscored with a subtree whose ceiling
    shows that none of them changes the result, so it is C(2^n, k).
    """

    n: int
    k: int
    q: int
    max_count: int
    argmax_examples: tuple[VertexSet, ...]
    total_subsets_scanned: int
    matches_formula: bool


def brute_force_mq(
    n: int,
    k: int,
    q: int,
    argmax_cap: int = DEFAULT_ARGMAX_CAP,
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Maximize the q-subcube count over all k-subsets of the n-cube.

    Decides all C(2^n, k) subsets in lexicographic order of their sorted
    member sequences, so results are deterministic. ``argmax_examples``
    holds the first ``argmax_cap`` maximizing sets in that order, and
    ``total_subsets_scanned`` is C(2^n, k): a set cut unscored, with a
    subtree that could not change the result, counts as decided. The
    module docstring gives the sizes where no set is walked, and the
    walk's ceilings and cuts; it also bounds the split ceiling's scans of
    the (n-1)-cube, which are not charged to ``budget``.

    Raises BudgetExceeded before any work if C(2^n, k) exceeds the budget
    or 2^64, whatever the budget, without computing a binomial past
    min(k, 2^n - k) = 64; within 2^64 subsets the recursion stays far
    below the interpreter's limit (see ``_MAX_SCAN``).
    """
    _check_dim(n)  # before 1 << n, which a huge n would make unaffordable
    _check_k(k, n)
    size = 1 << n
    _check_q(q, n)
    if argmax_cap < 0:
        raise ValueError(f"argmax_cap must be >= 0, got {argmax_cap}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    m = min(k, size - k)
    # C(2^n, m) > 2^m for m >= 2: past m = 64 no binomial is needed
    required = 1 << m if m > 64 else comb(size, k)
    bound = min(budget, _MAX_SCAN)
    if required > bound:
        raise BudgetExceeded(required, bound)

    best, examples, scanned = _scan(n, k, q, argmax_cap, {})
    formula = prefix_hq(k, q)
    return OracleResult(
        n=n,
        k=k,
        q=q,
        max_count=best,
        argmax_examples=tuple(examples),
        total_subsets_scanned=scanned,
        matches_formula=(best == formula),
    )


def _scan(
    n: int, k: int, q: int, cap: int, maxima: dict[tuple[int, int, int], int]
) -> tuple[int, list[VertexSet], int]:
    """(best, argmax list, sets decided) of the k-subsets of the n-cube at
    q: without a walk where every set ties, else by the walk, upward where
    it takes the split ceiling and else from the shorter side."""
    size = 1 << n
    if q == 0 or k < 1 << q or k >= size - 1:
        # every set holds no q-subcube, or the whole cube's but the C(n, q)
        # through each vertex it misses, which no two share here
        scanned, first = comb(size, k), [(1 << k) - 1]
        while len(first) < min(cap, scanned):
            first.append(_next_set(first[-1], size))
        count = 0 if k < 1 << q else comb(n, q) * ((size >> q) - (size - k))
        return count, [VertexSet.from_bits(n, bits) for bits in first[:cap]], scanned
    return _walk(n, k, q, cap, not _splits(n, k, q) and 2 * k > size, maxima)


def _next_set(bits: int, size: int) -> int:
    """The set after ``bits`` in scan order, among the sets of its size in
    a cube of ``size`` vertices: the highest member below the run that
    ends at vertex size - 1 moves up one, and the run follows it."""
    gap = (bits ^ (1 << size) - 1).bit_length() - 1
    low = bits & (1 << gap) - 1
    moved = low.bit_length() - 1
    return low ^ 1 << moved | (1 << size - gap) - 1 << moved + 1


def _splits(n: int, k: int, q: int) -> bool:
    """Whether an upward scan of the k-subsets of the n-cube at q takes the
    split ceiling: its cross term reads (q-1)-subcubes, and the floor
    holds (see ``_SPLIT_DIM``)."""
    return q > 0 and n <= _SPLIT_DIM and comb(1 << n, k) >= _SPLIT_SCAN


def _walk(
    n: int, k: int, q: int, cap: int, down: bool, maxima: dict[tuple[int, int, int], int]
) -> tuple[int, list[VertexSet], int]:
    size = 1 << n
    half = size >> 1
    ones = (1 << size) - 1
    per_vertex = comb(n, q)
    whole = per_vertex << n - q
    if down:
        # pick the removed vertices from the whole cube; the first
        # removal's C(n, q) subcubes are taken before the walk starts,
        # which spares the first level its masks
        if k == size:
            return whole, [VertexSet.from_bits(n, ones)] if cap else [], 1
        step, picks, root, count = -1, size - k, ones, whole - per_vertex
        # a later removal takes no subcube at least
        top, reach = picks - 1, 0
    else:
        # pick the kept vertices; a pick is scored once 2^q - 1 precede it,
        # and adds at most the C(n, q) subcubes whose highest vertex it is
        step, picks, root, count, top = 1, k, 0, 0, max(0, k - (1 << q) + 1)
        reach = per_vertex
    table = _MaskTable(n, q)
    kept, masks = table.kept, table.masks
    # upward, levels with _TRACKED picks left also keep the m_q of their
    # universe (see the module docstring), unless no pick is scored
    track = not down and top > 0 and picks >= _TRACKED
    # upward, a level whose prefix lies below 2^(n-1) takes the split
    # ceiling at its pick 2^(n-1)
    split = not down and _splits(n, k, q)
    best = -1
    # the least count a set needs to change the result: best while the
    # argmax list has room, best + 1 once it holds cap sets
    bar = -1 if cap else 0
    examples: list[VertexSet] = []
    scanned = 0

    def pick(bits: int, count: int, start: int, left: int, universe: int) -> None:
        # The next of ``left`` picks, from ``start`` up or from 2^n - left
        # down; ``bits`` and ``count`` are the set so far and its m_q, and
        # ``universe`` is at least the m_q of every set below.
        nonlocal best, bar, examples, scanned
        scored = left <= top
        # a first or second pick with picks below it
        lead = left >= picks - 1 and left > 1
        if left == 1:
            scanned += size - start
        else:
            lift = min(left - 1, top) * reach
            shrink = track and left >= _TRACKED
        stop, cut = size - left + 1, -1
        if split and bits and start <= half < stop:
            # a nonempty prefix below 2^(n-1) is the low half of every set
            # in the subtrees of 2^(n-1) and its later siblings. The split
            # ceiling is tested at that pick, or, at a last pick, once as
            # the level begins, so that its loop pays no test per pick;
            # those sets are counted in scanned already
            if left > 1:
                cut = half
            elif count + _top_half(n, k, q, 1, maxima) < bar:
                stop = half
        for v in range(size - left, start - 1, -1) if down else range(start, stop):
            total = count
            if scored:
                for m in kept[v] or masks(v):
                    if bits & m == m:
                        total += step
                    elif m > bits:
                        break
            if left == 1:
                if total >= bar:
                    if total > best:
                        best = total
                        examples = []
                    if len(examples) < cap:
                        examples.append(VertexSet.from_bits(n, bits ^ 1 << v))
                    bar = best + (len(examples) >= cap)
            else:
                if v == cut and count + _top_half(n, k, q, left, maxima) < bar:
                    # the split ceiling: the subtrees of v and its later
                    # siblings
                    scanned += comb(size - v, left)
                    return
                # cut the subtree of v when its ceiling falls short, or,
                # past a full list, when v starts no orbit's least set
                if (
                    total + lift < bar
                    or universe < bar
                    or lead and len(examples) >= cap and not _leads(v, start - 1, down)
                ):
                    scanned += comb(size - v - 1, left - 1)
                else:
                    pick(bits ^ 1 << v, total, v + 1, left - 1, universe)
                if shrink:
                    # v leaves the universe with the subcubes through it
                    # inside it: with nothing picked, those lowest at v
                    if bits:
                        inside = bits | ones >> v + 1 << v + 1
                        for m in kept[v] or masks(v):
                            if inside & m == m:
                                universe -= 1
                    else:
                        universe -= comb(n - v.bit_count(), q)
                    if universe < bar:
                        # and so do the later siblings' subtrees
                        scanned += comb(size - v - 1, left)
                        return

    pick(root, count, 0, picks, whole)
    return best, examples, scanned


def _top_half(n: int, k: int, q: int, left: int, maxima: dict[tuple[int, int, int], int]) -> int:
    """The most q-subcubes that ``left`` vertices of the top half of the
    n-cube add to a k-set whose other members lie in the low half:
    M_{n-1}(left, q) + M_{n-1}(min(left, k - left), q - 1), the top half's
    own and those across the split (see the module docstring).

    M_{n-1}(j, r), the most r-subcubes a j-set of the (n-1)-cube holds, is
    the maximum of the oracle's own scan of that cube at cap 0, made at its
    first use and kept in ``maxima`` under (n - 1, j, r).
    """
    total = 0
    for key in ((n - 1, left, q), (n - 1, min(left, k - left), q - 1)):
        if key not in maxima:
            maxima[key] = _scan(*key, 0, maxima)[0]
        total += maxima[key]
    return total


def _leads(v: int, prior: int, down: bool) -> bool:
    """Whether a first pick v (``prior`` -1), or a second pick v after
    ``prior``, may start the lexicographically least set of its orbit
    under the cube's automorphisms.

    That set holds 0, and its second member is some 2^j - 1. Upward v is
    a member of the set, so a first pick must be 0 and a second one of the
    form 2^j - 1. Downward v is a member of the removed set, smallest
    first: a first pick of 0 removes 0, and after a first pick of 1 every
    second pick but 2 leaves 2 as the set's second member.
    """
    if down:
        return v != 0 if prior < 0 else prior != 1 or v == 2
    return v == 0 if prior < 0 else v & (v + 1) == 0


# Picks left from which an upward level keeps its universe's count. At
# fewer the upkeep costs more than its cuts save: tracking from 2 picks
# left made (3, 3, 1) ~40% and (5, 3, 1) ~20% slower than tracking from
# 3, and the whole sweep of n <= 4 and the n = 5 slices no faster.
_TRACKED = 3

# The floor of the split ceiling (``_splits``): a scan takes it, and so
# runs upward, only in cubes of dimension at most _SPLIT_DIM and with at
# least _SPLIT_SCAN sets. Past the dimension the sparse scans' sub-scans
# can cost more than the regions they cut: with them (10, 3, 1) took 1.3x
# and (7, 3, 1) 1.4x as long. Below the size a scan is over before its
# sub-scans pay: with no size floor the n <= 4 sweep and the n = 5 slices
# took 1.4x as long as with this one, and with 10,000 1.25x.
_SPLIT_DIM = 6
_SPLIT_SCAN = 2000

# Bytes of mask lists and shapes one scan keeps; past it, a vertex's
# masks are built again at each use. The removed pairs of the 12-cube at
# q = 2 reach it: 66 masks of up to 4096 bits per vertex, ~91 MiB in all.
_TABLE_BYTES = 1 << 26


class _MaskTable:
    """The q-subcubes through each vertex v, as 2^n-bit masks of their
    vertices other than v, sorted ascending and built at v's first use.

    Such a subcube lies inside S + {v} exactly when its mask m has
    ``bits & m == m`` for the indicator ``bits`` of S, which needs
    m <= bits; so a scan of the sorted list stops at the first mask past
    ``bits``. Upward, where S lies below v, the subcubes that fit are
    those topped at v. ``kept[v]`` is v's list while the lists stay
    within _TABLE_BYTES, else None. The lists are built from ``shapes``,
    one indicator per choice of q free coordinates, made with the table
    and counted against the bound. Only the walk makes a table, and it
    runs only where two k-sets differ in count (q > 0, 2^q <= k <=
    2^n - 2), so the near-full scans of large cubes make none.
    """

    def __init__(self, n: int, q: int):
        self.kept: list[list[int] | None] = [None] * (1 << n)
        # (span, shape): the free coordinates' bits and the indicator of
        # the subcube they span from vertex 0
        self.shapes: list[tuple[int, int]] = []
        for free in combinations([1 << c for c in range(n)], q):
            shape = 1
            for step in free:
                shape |= shape << step
            self.shapes.append((sum(free), shape))
        self.room = _TABLE_BYTES - getsizeof(self.kept) - getsizeof(self.shapes) - sum(
            getsizeof(pair) + sum(map(getsizeof, pair)) for pair in self.shapes
        )

    def masks(self, v: int) -> list[int]:
        found = self.kept[v]
        if found is None:
            found = self.build(v)
            size = getsizeof(found) + sum(map(getsizeof, found))
            if size <= self.room:
                self.room -= size
                self.kept[v] = found
        return found

    def build(self, v: int) -> list[int]:
        # the subcube through v is the shape moved to its lowest vertex,
        # v & ~span, where v sits at v & span
        return sorted((shape ^ 1 << (v & span)) << (v & ~span) for span, shape in self.shapes)


def is_optimal_set(S: VertexSet, q: int) -> bool:
    """Whether S attains the prefix-sum maximum for its own cardinality.

    The empty set is vacuously optimal (it contains zero subcubes and the
    empty prefix sum is zero).
    """
    count = count_subcubes_naive(S, q)
    if len(S) == 0:
        return count == 0
    return count == prefix_hq(len(S), q)
