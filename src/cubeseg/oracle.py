"""Ground-truth maxima by exhaustive search over all k-subsets.

The oracle enumerates every k-element vertex subset of the n-cube in
lexicographic order and compares the maximum against the prefix-sum
formula. The scan shares nothing with the two counting kernels;
``is_optimal_set`` checks one given set with the naive kernel. Subsets are
walked as a recursion over the tree of their prefixes: each call picks
the next member and passes the new prefix's indicator and count down, so
the call stack holds the prefix and each prefix is pushed once. The call
that picks the last member scores it over its whole range in one loop.
There are two walks, and which one runs depends on (n, k) alone:

* The forward walk pushes the members of S. Pushing a vertex v adds the
  number of q-subcubes inside the prefix whose highest vertex is v, which
  is the per-vertex reading of the paper's sum over i < k of C(h(i), q).
* The complement walk, for k near 2^n, picks the removed set T, which
  has r = 2^n - k members. It starts from the C(n, q) * 2^(n-q) subcubes
  of the whole cube, and removing u subtracts the q-subcubes inside the
  current set that contain u, counted before u is removed. A near-full
  scan thus recurses r - 1 calls deep instead of k - 1.

Both visit the sets in the same order. S1 < S2 exactly when the smallest
element of S1 △ S2 lies in S1, and S1 △ S2 = T1 △ T2, so S ascending is
T descending. The complement walk picks each member of T downward, which
takes T in reverse lexicographic order, and the counts and the capped
argmax list are the same as the forward walk's.

A vertex is scored against a table that each scan fills as it goes: for
each vertex v, the 2^n-bit masks of the q-subcubes the walk scores at v,
each without v itself, so a set holds such a subcube exactly when its
indicator ``bits`` has ``bits & m == m``. The forward walk's table holds
the C(h(v), q) subcubes topped by v and the complement walk's the C(n, q)
through v. Two tests skip the table: the forward walk scores 0 while the
prefix has fewer than 2^q - 1 members, which a q-subcube needs besides v,
and the complement walk scores C(n, q) while nothing has been removed, so
a scan with one removal builds no mask. A table keeps at most
``_TABLE_BYTES`` (64 MiB) of masks; a vertex past it has its masks built
again at each use. At q = 0 every vertex's one mask is 0, and all share
one list from the start. The masks are built here from the coordinates
and not taken from ``cube``'s free-coordinate tables: the oracle is the
check that the kernels are right, and a fault in a shared table would
pass it.
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

# Largest scan started whatever the budget. The walks recurse once per
# member they pick, and C(2^n, k) >= 2^depth for every n <= 20, so no scan
# of at most 2^64 subsets nests more than 41 calls (n = 6, k = 42).
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
    the prefix-sum value for (k, q).
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

    Visits all C(2^n, k) subsets in lexicographic order of their sorted
    member sequences, so results (including the capped argmax list) are
    deterministic. When 3k > 2^(n+1) the scan walks the 2^n - k removed
    vertices in reverse lexicographic order instead, which is the same
    order of the sets (see the module docstring); the switch depends on
    (n, k) alone. It was placed where the two walks cost the same at
    n = 3 and 4 before the mask tables, which moved that point down to
    k = 5 and 9, about 2k = 2^n + 2. Both walks recurse over the prefix
    tree, one call per picked member: k - 1 calls deep forward,
    2^n - k - 1 on the complement.

    Each picked vertex is scored by testing the set against the masks of
    the subcubes it completes, from a table the scan fills at first use
    and keeps within 64 MiB. The forward walk scores nothing while the
    prefix is too small to hold a q-subcube, and the complement walk's
    first removal takes C(n, q) without a mask, so ``(20, 2^20 - 1, q)``
    scans its 2^20 sets in well under a second.

    Raises BudgetExceeded before any work if C(2^n, k) exceeds the budget
    or 2^64, whatever the budget, without computing a binomial past
    min(k, 2^n - k) = 64; within 2^64 subsets the recursion is at most 41
    calls deep (n = 6, k = 42), far below the interpreter's limit.
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

    if 3 * k > 2 * size:
        best, examples, scanned = _complement_walk(n, k, q, argmax_cap)
    else:
        best, examples, scanned = _forward_walk(n, k, q, argmax_cap)
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


def _forward_walk(
    n: int, k: int, q: int, cap: int
) -> tuple[int, list[VertexSet], int]:
    size = 1 << n
    table = _MaskTable(n, q, through=False)
    kept, masks = table.kept, table.masks
    need = (1 << q) - 1  # members of a q-subcube besides its top vertex
    best = -1
    examples: list[VertexSet] = []
    scanned = 0

    def push(bits: int, count: int, start: int, left: int) -> None:
        # Members from ``start`` up; ``bits`` and ``count`` are the prefix's
        # indicator and m_q, and ``left`` members remain to be picked.
        nonlocal best, examples, scanned
        scored = k - left >= need
        if left == 1:
            scanned += size - start
        for v in range(start, size - left + 1):
            total = count
            if scored:
                for m in kept[v] or masks(v):
                    if bits & m == m:
                        total += 1
            if left > 1:
                push(bits | 1 << v, total, v + 1, left - 1)
            elif total >= best:
                if total > best:
                    best = total
                    examples = []
                if len(examples) < cap:
                    examples.append(VertexSet.from_bits(n, bits | 1 << v))

    push(0, 0, 0, k)
    return best, examples, scanned


def _complement_walk(
    n: int, k: int, q: int, cap: int
) -> tuple[int, list[VertexSet], int]:
    size = 1 << n
    full = (1 << size) - 1
    per_vertex = comb(n, q)
    whole = per_vertex << (n - q)
    if k == size:
        return whole, [VertexSet.from_bits(n, full)] if cap else [], 1
    table = _MaskTable(n, q, through=True)
    kept, masks = table.kept, table.masks
    best = -1
    examples: list[VertexSet] = []
    scanned = 0

    def remove(bits: int, count: int, start: int, left: int) -> None:
        # Removed vertices from 2^n - left down to ``start``; ``bits`` and
        # ``count`` are the set left by the removed prefix and its m_q.
        nonlocal best, examples, scanned
        untouched = left == size - k  # nothing removed: C(n, q) through u
        if left == 1:
            scanned += size - start
        for u in range(size - left, start - 1, -1):
            if untouched:
                total = count - per_vertex
            else:
                total = count
                for m in kept[u] or masks(u):
                    if bits & m == m:
                        total -= 1
            if left > 1:
                remove(bits ^ 1 << u, total, u + 1, left - 1)
            elif total >= best:
                if total > best:
                    best = total
                    examples = []
                if len(examples) < cap:
                    examples.append(VertexSet.from_bits(n, bits ^ 1 << u))

    remove(full, whole, 0, size - k)
    return best, examples, scanned


# Bytes of mask lists one _MaskTable keeps; past it, a vertex's masks are
# built again at each use. The removed pairs of the 12-cube at q = 2 reach
# it: 66 masks of up to 4096 bits per vertex, ~91 MiB in all.
_TABLE_BYTES = 1 << 26


class _MaskTable:
    """The q-subcubes a walk scores at each vertex v, as 2^n-bit masks of
    their vertices other than v, built at a vertex's first use.

    With ``through`` false these are the subcubes whose highest vertex is
    v, which free q of v's one-bits; with ``through`` true, every subcube
    through v. Such a subcube lies inside S + {v} exactly when its mask m
    has ``bits & m == m`` for the indicator ``bits`` of S. ``kept[v]`` is
    v's list while the lists stay within _TABLE_BYTES, else None. At
    q = 0 a vertex's one subcube is itself, whose mask is 0, so every
    entry is the same list [0] from the start.
    """

    def __init__(self, n: int, q: int, through: bool):
        self.n = n
        self.q = q
        self.through = through
        self.kept: list[list[int] | None] = [[0] if q == 0 else None] * (1 << n)
        self.room = _TABLE_BYTES - getsizeof(self.kept)

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
        steps = [1 << c for c in range(self.n) if self.through or v >> c & 1]
        found = []
        for free in combinations(steps, self.q):
            # the subcube's indicator shifted down to its lowest vertex
            low, shape = v, 1
            for step in free:
                low -= v & step
                shape |= shape << step
            found.append((shape ^ 1 << (v - low)) << low)
        return found


def is_optimal_set(S: VertexSet, q: int) -> bool:
    """Whether S attains the prefix-sum maximum for its own cardinality.

    The empty set is vacuously optimal (it contains zero subcubes and the
    empty prefix sum is zero).
    """
    count = count_subcubes_naive(S, q)
    if len(S) == 0:
        return count == 0
    return count == prefix_hq(len(S), q)
