"""Ground-truth maxima by exhaustive search over all k-subsets.

The oracle enumerates every k-element vertex subset of the n-cube in
lexicographic order and compares the maximum against the prefix-sum
formula. It shares nothing with the two counting kernels. Subsets are
walked as one chain of prefixes: all members but the last are pushed
once per prefix, and the last member is scored over its whole range in
one loop. There are two walks, and which one runs depends on (n, k)
alone:

* The forward walk pushes the members of S. Pushing a vertex v adds the
  number of q-subcubes inside the prefix whose highest vertex is v, which
  is the per-vertex reading of the paper's sum over i < k of C(h(i), q).
* The complement walk, for k near 2^n, pushes the removed set T, which
  has r = 2^n - k members. It starts from the C(n, q) * 2^(n-q) subcubes
  of the whole cube, and removing u subtracts the q-subcubes inside the
  current set that contain u. A near-full scan thus pushes at most
  r - 1 vertices per prefix instead of k - 1.

Both visit the sets in the same order. S1 < S2 exactly when the smallest
element of S1 △ S2 lies in S1, and S1 △ S2 = T1 △ T2, so S ascending is
T descending. The complement walk takes T in reverse lexicographic order,
and the counts and the capped argmax list are the same as the forward
walk's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .cube import VertexSet, _check_dim, _check_q, count_subcubes_naive
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


class BudgetExceeded(Exception):
    """The subset space is larger than the enumeration budget allows."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration needs {required} subsets, budget allows {budget}"
        )


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
    (n, k) alone and was placed where the two walks cost the same at
    n = 3 and 4. Raises BudgetExceeded before any work if C(2^n, k)
    exceeds the budget.
    """
    _check_dim(n)  # before 1 << n, which a huge n would make unaffordable
    size = 1 << n
    if k < 1 or k > size:
        raise ValueError(f"k must be in [1, 2^{n}], got {k}")
    _check_q(q, n)
    if argmax_cap < 0:
        raise ValueError(f"argmax_cap must be >= 0, got {argmax_cap}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    required = comb(size, k)
    if required > budget:
        raise BudgetExceeded(required, budget)

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
    # combo holds members 0..k-2 of the current subset, bits their
    # indicator and counts[d] the m_q of the first d. Advancing at
    # position i keeps counts[..i] and pushes the new suffix; the last
    # member then runs over every vertex above combo[-1].
    size = 1 << n
    last = k - 1
    top = size - k  # position i ends its run at value i + top
    combo = list(range(last))
    counts = [0] * k
    bits = 0
    best = -1
    examples: list[VertexSet] = []
    scanned = 0
    i = 0
    while True:
        for d in range(i, last):
            v = combo[d]
            bits |= 1 << v
            counts[d + 1] = counts[d] + (_grow(bits, 1, v, v, v, q) if q else 1)
        base = counts[last]
        first = combo[-1] + 1 if last else 0
        scanned += size - first
        for v in range(first, size):
            bits_v = bits | 1 << v
            count = base + (_grow(bits_v, 1, v, v, v, q) if q else 1)
            if count >= best:
                if count > best:
                    best = count
                    examples = []
                if len(examples) < cap:
                    examples.append(VertexSet.from_bits(n, bits_v))
        i = last - 1
        while i >= 0 and combo[i] == i + top:
            i -= 1
        if i < 0:
            return best, examples, scanned
        v = combo[i]
        bits &= (1 << v) - 1  # members i..k-2 are the ones >= combo[i]
        for d in range(i, last):
            v += 1
            combo[d] = v


def _complement_walk(
    n: int, k: int, q: int, cap: int
) -> tuple[int, list[VertexSet], int]:
    # The removed set T in reverse lexicographic order: combo holds
    # members 0..r-2 of T, bits the indicator of the cube without them and
    # counts[d] the m_q left after removing the first d. Lowering position
    # i by one keeps counts[..i], puts every vertex >= its old value back
    # and pushes the suffix at its largest values; the last member of T
    # then runs down over every vertex above combo[-1].
    size = 1 << n
    full = (1 << size) - 1
    whole = comb(n, q) << (n - q)
    r = size - k
    if r == 0:
        return whole, [VertexSet.from_bits(n, full)] if cap else [], 1
    last = r - 1
    top = size - r  # position i starts its run at value i + top
    coords = (1 << n) - 1  # any coordinate may be freed around a removed vertex
    combo = list(range(top, top + last))
    counts = [whole] + [0] * last
    bits = full
    best = -1
    examples: list[VertexSet] = []
    scanned = 0
    i = 0
    while True:
        for d in range(i, last):
            u = combo[d]
            through = _grow(bits, 1, u, u, coords, q) if q else 1
            counts[d + 1] = counts[d] - through
            bits ^= 1 << u
        base = counts[last]
        stop = combo[-1] if last else -1
        scanned += size - 1 - stop
        for u in range(size - 1, stop, -1):
            count = base - (_grow(bits, 1, u, u, coords, q) if q else 1)
            if count >= best:
                if count > best:
                    best = count
                    examples = []
                if len(examples) < cap:
                    examples.append(VertexSet.from_bits(n, bits ^ 1 << u))
        i = last - 1
        while i >= 0 and combo[i] - 1 == (combo[i - 1] if i else -1):
            i -= 1
        if i < 0:
            return best, examples, scanned
        u = combo[i]
        bits |= full ^ ((1 << u) - 1)  # members i..r-2 are the ones >= combo[i]
        combo[i] = u - 1
        for d in range(i + 1, last):
            combo[d] = top + d


def _grow(bits: int, cube: int, low: int, u: int, rest: int, q: int) -> int:
    """Number of q-subcubes inside ``bits`` that contain vertex u and
    extend ``cube`` by q more free coordinates taken from ``rest``.

    ``cube`` is a subcube through u, as its indicator shifted down to its
    lowest vertex ``low``. Free coordinates are added in increasing order;
    a branch ends as soon as its cube is not inside ``bits``, since every
    larger cube of the branch contains it. With ``rest`` the one-bits of
    u, these are the subcubes whose highest vertex is u; with every
    coordinate, all subcubes through u.
    """
    count = 0
    while rest.bit_count() >= q:
        step = rest & -rest
        rest ^= step
        low_child = low - (step & u)
        child = cube | cube << step
        if (bits >> low_child) & child == child:
            count += 1 if q == 1 else _grow(bits, child, low_child, u, rest, q - 1)
    return count


def is_optimal_set(S: VertexSet, q: int) -> bool:
    """Whether S attains the prefix-sum maximum for its own cardinality.

    The empty set is vacuously optimal (it contains zero subcubes and the
    empty prefix sum is zero).
    """
    count = count_subcubes_naive(S, q)
    if len(S) == 0:
        return count == 0
    return count == prefix_hq(len(S), q)
