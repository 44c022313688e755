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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

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
    """The subset space is larger than the enumeration budget allows."""

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
    (n, k) alone and was placed where the two walks cost the same at
    n = 3 and 4. Both walks recurse over the prefix tree, one call per
    picked member: k - 1 calls deep forward, 2^n - k - 1 on the complement.
    Raises BudgetExceeded before any work if C(2^n, k) exceeds the budget
    or 2^64, whatever the budget; within 2^64 subsets the recursion is at
    most 41 calls deep (n = 6, k = 42), far below the interpreter's limit.
    """
    _check_dim(n)  # before 1 << n, which a huge n would make unaffordable
    _check_k(k, n)
    size = 1 << n
    _check_q(q, n)
    if argmax_cap < 0:
        raise ValueError(f"argmax_cap must be >= 0, got {argmax_cap}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    required = comb(size, k)
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
    best = -1
    examples: list[VertexSet] = []
    scanned = 0

    def push(bits: int, count: int, start: int, left: int) -> None:
        # Members from ``start`` up; ``bits`` and ``count`` are the prefix's
        # indicator and m_q, and ``left`` members remain to be picked.
        nonlocal best, examples, scanned
        if left == 1:
            scanned += size - start
            for v in range(start, size):
                bits_v = bits | 1 << v
                total = count + (_grow(bits_v, 1, v, v, v, q) if q else 1)
                if total >= best:
                    if total > best:
                        best = total
                        examples = []
                    if len(examples) < cap:
                        examples.append(VertexSet.from_bits(n, bits_v))
            return
        for v in range(start, size - left + 1):
            bits_v = bits | 1 << v
            push(bits_v, count + (_grow(bits_v, 1, v, v, v, q) if q else 1), v + 1, left - 1)

    push(0, 0, 0, k)
    return best, examples, scanned


def _complement_walk(
    n: int, k: int, q: int, cap: int
) -> tuple[int, list[VertexSet], int]:
    size = 1 << n
    full = (1 << size) - 1
    whole = comb(n, q) << (n - q)
    if k == size:
        return whole, [VertexSet.from_bits(n, full)] if cap else [], 1
    coords = size - 1  # any coordinate may be freed around a removed vertex
    best = -1
    examples: list[VertexSet] = []
    scanned = 0

    def remove(bits: int, count: int, start: int, left: int) -> None:
        # Removed vertices from 2^n - left down to ``start``; ``bits`` and
        # ``count`` are the set left by the removed prefix and its m_q.
        nonlocal best, examples, scanned
        if left == 1:
            scanned += size - start
            for u in range(size - 1, start - 1, -1):
                total = count - (_grow(bits, 1, u, u, coords, q) if q else 1)
                if total >= best:
                    if total > best:
                        best = total
                        examples = []
                    if len(examples) < cap:
                        examples.append(VertexSet.from_bits(n, bits ^ 1 << u))
            return
        for u in range(size - left, start - 1, -1):
            through = _grow(bits, 1, u, u, coords, q) if q else 1
            remove(bits ^ 1 << u, count - through, u + 1, left - 1)

    remove(full, whole, 0, size - k)
    return best, examples, scanned


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
