"""Ground-truth maxima by exhaustive search over all k-subsets.

The oracle enumerates every k-element vertex subset of the n-cube in
lexicographic order, counts subcubes with the naive kernel (kept
deliberately independent of the bit-parallel one), and compares the
maximum against the prefix-sum formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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

    best = -1
    examples: list[VertexSet] = []
    scanned = 0
    for combo in combinations(range(size), k):
        scanned += 1
        bits = 0
        for v in combo:
            bits |= 1 << v
        S = VertexSet.from_bits(n, bits)
        count = count_subcubes_naive(S, q)
        if count > best:
            best = count
            examples = [S] if argmax_cap else []
        elif count == best and len(examples) < argmax_cap:
            examples.append(S)
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


def is_optimal_set(S: VertexSet, q: int) -> bool:
    """Whether S attains the prefix-sum maximum for its own cardinality.

    The empty set is vacuously optimal (it contains zero subcubes and the
    empty prefix sum is zero).
    """
    count = count_subcubes_naive(S, q)
    if len(S) == 0:
        return count == 0
    return count == prefix_hq(len(S), q)
