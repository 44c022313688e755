"""Ground-truth maxima by exhaustive search over all k-subsets.

The oracle enumerates every k-element vertex subset of the n-cube in
lexicographic order and compares the maximum against the prefix-sum
formula. It shares nothing with the two counting kernels: subsets are
walked as one chain of prefixes, and pushing a vertex v adds the number
of q-subcubes inside the prefix whose highest vertex is v, which is the
per-vertex reading of the paper's sum over i < k of C(h(i), q).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .cube import VertexSet, _check_dim, count_subcubes_naive
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

    Enumerates subsets in lexicographic order of their sorted member
    sequences, so results (including the capped argmax list) are
    deterministic. Raises BudgetExceeded before any work if C(2^n, k)
    exceeds the budget.
    """
    _check_dim(n)  # before 1 << n, which a huge n would make unaffordable
    size = 1 << n
    if k < 1 or k > size:
        raise ValueError(f"k must be in [1, 2^{n}], got {k}")
    if q < 0 or q > n:
        raise ValueError(f"q must be in [0, {n}], got {q}")
    if argmax_cap < 0:
        raise ValueError(f"argmax_cap must be >= 0, got {argmax_cap}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    required = comb(size, k)
    if required > budget:
        raise BudgetExceeded(required, budget)

    # One walk over the prefixes of the lexicographic enumeration: combo
    # is the current subset, bits its indicator, counts[d] the m_q of its
    # first d members. Advancing at position i keeps counts[..i] and
    # pushes the new suffix.
    combo = list(range(k))
    top = size - k  # position i ends its run at value i + top
    counts = [0] * (k + 1)
    bits = 0
    best = -1
    examples: list[VertexSet] = []
    scanned = 0
    i = 0
    while True:
        for d in range(i, k):
            v = combo[d]
            bits |= 1 << v
            counts[d + 1] = counts[d] + _topped_by(bits, v, q)
        scanned += 1
        count = counts[k]
        if count > best:
            best = count
            examples = [VertexSet.from_bits(n, bits)] if argmax_cap else []
        elif count == best and len(examples) < argmax_cap:
            examples.append(VertexSet.from_bits(n, bits))
        i = k - 1
        while i >= 0 and combo[i] == i + top:
            i -= 1
        if i < 0:
            break
        v = combo[i]
        bits &= (1 << v) - 1  # members i..k-1 are the ones >= combo[i]
        for d in range(i, k):
            v += 1
            combo[d] = v
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


def _topped_by(bits: int, v: int, q: int) -> int:
    """Number of q-subcubes inside ``bits`` whose highest vertex is v.

    Such a subcube frees q of v's one-bits and holds v with any of them
    cleared. Free bits are added in increasing order; a branch ends as
    soon as its cube is not inside ``bits``, since every larger cube of
    the branch contains it.
    """
    return _grow(bits, 1, v, v, q)


def _grow(bits: int, cube: int, low: int, rest: int, q: int) -> int:
    # cube is the current subcube's indicator shifted down to its lowest
    # vertex low; rest holds the one-bits of v that may still be freed.
    if q == 0:
        return 1
    count = 0
    while rest.bit_count() >= q:
        step = rest & -rest
        rest ^= step
        low_child = low - step
        child = cube | cube << step
        if (bits >> low_child) & child == child:
            count += _grow(bits, child, low_child, rest, q - 1)
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
