"""Independent reference implementations used as test oracles.

Everything here is deliberately written against different primitives than
the package under test (math.comb, string popcounts, itertools-based
subcube generation, recursive-descent recursion evaluation, an unpruned
scan of every split, the tail rule for maximizer sets, compression on
Python sets of members) so that an agreement between the two is
meaningful.
"""

from itertools import combinations, permutations, product
from functools import lru_cache
from math import comb


def popcount(v: int) -> int:
    return bin(v).count("1")


def edge_count(members) -> int:
    """Edges of the cube induced on a vertex collection: pairs one bit apart."""
    members = sorted(set(members))
    return sum(
        1
        for a, b in combinations(members, 2)
        if (a ^ b) & ((a ^ b) - 1) == 0
    )


@lru_cache(maxsize=None)
def _subcubes(n: int, q: int) -> tuple:
    """Every q-subcube of the n-cube, as the frozenset of its 2^q vertices.

    Fixes every (n-q)-subset of coordinates to every bit pattern and lets
    the other q coordinates run over every bit pattern.
    """
    cubes = []
    for fixed in combinations(range(n), n - q):
        free = [r for r in range(n) if r not in fixed]
        for pattern in product((0, 1), repeat=len(fixed)):
            base = sum(bit << coord for coord, bit in zip(fixed, pattern))
            cubes.append(frozenset(
                base + sum(bit << coord for coord, bit in zip(free, free_bits))
                for free_bits in product((0, 1), repeat=len(free))
            ))
    return tuple(cubes)


def subcube_count(members, n: int, q: int) -> int:
    """Count q-subcubes inside a vertex collection by explicit generation.

    Tests every generated q-subcube for being a subset of the members,
    held in a Python set.
    """
    vertex_set = set(members)
    return sum(cube <= vertex_set for cube in _subcubes(n, q))


def prefix_sum(k: int, q: int) -> int:
    """Sum of C(popcount(i), q) for i < k, via math.comb."""
    return sum(comb(popcount(i), q) for i in range(k))


def recursion_value(q: int, k: int) -> int:
    """Recursive-descent evaluation of the max-recursion, memoized."""

    @lru_cache(maxsize=None)
    def f(qq: int, kk: int) -> int:
        if qq == 0:
            return kk
        if kk == 1:
            return 0
        return max(
            f(qq, kp) + f(qq, kk - kp) + f(qq - 1, kp)
            for kp in range(1, kk // 2 + 1)
        )

    return f(q, k)


def recursion_argmax(q: int, k: int) -> set:
    """Maximizing k' values computed from recursion_value alone."""
    best = recursion_value(q, k)
    return {
        kp
        for kp in range(1, k // 2 + 1)
        if recursion_value(q, kp)
        + recursion_value(q, k - kp)
        + recursion_value(q - 1, kp)
        == best
    }


def recursion_table_full_scan(qmax: int, kmax: int):
    """``(values, maximizer_sets)`` of the max-recursion by scanning every split.

    Scores all k' in [1, k//2] for every (q, k), with no pruning: the
    reference for build_table's values and argmax tuples.
    """
    values = [list(range(kmax + 1))]
    maximizer_sets = {}
    for q in range(1, qmax + 1):
        row = [0] * (kmax + 1)
        prev = values[q - 1]
        for k in range(2, kmax + 1):
            best = -1
            args = []
            for kp in range(1, k // 2 + 1):
                candidate = row[kp] + row[k - kp] + prev[kp]
                if candidate > best:
                    best = candidate
                    args = [kp]
                elif candidate == best:
                    args.append(kp)
            row[k] = best
            maximizer_sets[(q, k)] = tuple(args)
        values.append(row)
    return values, maximizer_sets


def tail_rule_maximizer_sets(qmax: int, kmax: int) -> dict:
    """``maximizer_sets`` of the max-recursion from the tail rule alone.

    For each k, walks k' = 1 .. k//2 keeping
    D[w] = #{j in [k-k', k) : h(j) = w} - #{i in [0, k') : h(i) + 1 = w};
    each step adds j = k-k' and i = k'-1, two entries. k' maximizes
    F_q(k) exactly when D[w] = 0 for every w >= q, so it lands in the
    sets of every q above the top weight still unbalanced. No value of
    the recursion is computed.
    """
    h = [popcount(i) for i in range(kmax)]
    size = max(max(h) + 2, qmax + 1)
    sets = {(q, k): [] for q in range(1, qmax + 1) for k in range(2, kmax + 1)}
    for k in range(2, kmax + 1):
        D = [0] * size
        high = 0  # how many w >= qmax have D[w] != 0
        for kp in range(1, k // 2 + 1):
            w = h[k - kp]
            D[w] += 1
            if w >= qmax:
                high += (D[w] == 1) - (D[w] == 0)
            w = h[kp - 1] + 1
            D[w] -= 1
            if w >= qmax:
                high += (D[w] == -1) - (D[w] == 0)
            if high == 0:
                top = qmax - 1
                while top > 0 and D[top] == 0:
                    top -= 1
                for q in range(top + 1, qmax + 1):
                    sets[(q, k)].append(kp)
    return {key: tuple(args) for key, args in sets.items()}


def compress(bits: int, n: int, i: int) -> int:
    """The i-compression of the n-cube set with indicator ``bits``.

    The halves (A, B) of the set along coordinate i, its members with
    x_i = 0 and x_i = 1 read as sets of the other coordinates, become
    (A ∪ B, A ∩ B). Works on the members as a Python set.
    """
    members = {v for v in range(1 << n) if bits >> v & 1}
    out = set()
    for v in members:
        low = v & ~(1 << i)
        out.add(low)
        if low in members and low | 1 << i in members:
            out.add(low | 1 << i)
    return sum(1 << v for v in out)


def ones_below(k: int, r: int) -> int:
    """How many of 0, ..., k-1 have bit r set, by direct enumeration."""
    return sum(1 for i in range(k) if (i >> r) & 1)


def hypercubic_sizes(k: int) -> set:
    """Hypercubic light-side sizes of k via direct bit counting."""
    sizes = set()
    r = 0
    while (1 << r) < k:
        c = ones_below(k, r)
        if 1 <= c <= k // 2:
            sizes.add(c)
        r += 1
    return sizes


def permute_coordinates(v: int, perm, n: int) -> int:
    """Image of vertex v under the coordinate permutation r -> perm[r]."""
    out = 0
    for r in range(n):
        if (v >> r) & 1:
            out |= 1 << perm[r]
    return out


def special_bijection_exists(ilo: int, ihi: int, jlo: int, jhi: int) -> bool:
    """Whether some bijection [ilo:ihi] -> [jlo:jhi] never lowers the weight.

    Tries every permutation of the targets; the weight must rise strictly
    when the intervals are disjoint.
    """
    strict = ihi < jlo
    sources = range(ilo, ihi + 1)
    return any(
        all(popcount(i) + strict <= popcount(p) for i, p in zip(sources, targets))
        for targets in permutations(range(jlo, jhi + 1))
    )
