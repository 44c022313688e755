"""Seeded workloads: the items of one timed pass, as plain data.

An item is one call a user makes: a public library function or one
``cli.run``. Items are ``(kind, args)`` tuples whose args are ints, tuples
and strings only, so the inputs can be hashed and compared between two
checkouts before any library code runs. ``KINDS`` turns them into calls.

Every generator walks a fixed list of size slots (set dimension, subcube
dimension, interval size, k) and lets the seed pick the instance inside
each slot: set members, interval offsets and a jitter of about one
percent on sizes. The cost of a pass therefore barely depends on the
seed while its inputs and outputs do.

Every workload also ends with probes (``_add_probes``): one tiny call
into each library function the benchmark measures, so that every
per-layer time is measured on every workload. They cost well under one
percent of a pass.
"""

from __future__ import annotations

import random

from references import bijection_exists

FORMATS = ("plain", "json", "csv")
# Each CLI slot is asked this many times in each format, for enough
# samples of the median CLI item in one run.
CLI_REPEATS = 2


def _jitter(rng: random.Random, base: int, share: float = 0.01) -> int:
    """base plus a seeded offset below ``share`` of it."""
    return base + rng.randrange(max(1, int(base * share)))


def _random_bits(rng: random.Random, n: int, density: float) -> int:
    bits = 0
    for v in range(1 << n):
        if rng.random() < density:
            bits |= 1 << v
    return bits


def _segment(kind: str, n: int, k: int, q: int) -> tuple:
    """An item asking about the initial segment {0..k-1} of the n-cube."""
    return (kind, (n, (1 << k) - 1, q, ("segment", k)))


def _set_with_both_sides(rng: random.Random, n: int, density: float, r: int) -> int:
    # three_term_report needs both halves of the split non-empty.
    while True:
        bits = _random_bits(rng, n, density)
        ones = sum(1 << v for v in range(1 << n) if v >> r & 1)
        if bits & ones and bits & ~ones:
            return bits


def _add_probes(items: list, rng: random.Random) -> None:
    """Append one tiny call per measured library function."""
    n = 4
    bits = _random_bits(rng, n, 0.6) | 1
    s = rng.randrange(3, 6)
    j0 = s + rng.randrange(4)
    items += [
        ("weights.prefix_hq", (rng.randrange(2, 16), 1)),
        ("cube.bitparallel", (n, bits, 1, ("random",))),
        ("cube.naive", (n, bits, 1, ("random",))),
        ("cube.three_term", (n, _set_with_both_sides(rng, n, 0.6, 1), 1, 1, ("random",))),
        ("cube.save", (n, bits, "probe.txt")),
        ("cube.load", (n, bits, "probe.txt")),
        ("bijection.find", (0, s - 1, j0, j0 + s - 1)),
    ]
    items.append(("bijection.verify", (len(items) - 1,)))
    items += [
        ("bijection.inequality", (0, s - 1, j0, j0 + s - 1, 1)),
        ("recursion.build_table", (2, 16)),
        ("recursion.hypercubic", (rng.randrange(2, 16),)),
        ("recursion.counterexample", (2, 16)),
        ("oracle.brute_force", (2, rng.randrange(1, 5), 1)),
        _segment("oracle.is_optimal", 3, rng.randrange(1, 9), 1),
    ]


def exhaustive(rng: random.Random, tiny: bool) -> list:
    """Exhaustive oracle sweeps and the naive kernel over many tiny sets."""
    items: list = []
    nmax = 3 if tiny else 4
    for n in range(1, nmax + 1):
        for k in range(1, (1 << n) + 1):
            for q in range(n + 1):
                items.append(("oracle.brute_force", (n, k, q)))
    slices = (1, 32) if tiny else (1, 2, 3, 30, 31, 32)
    for k in slices:
        for q in range(6):
            items.append(("oracle.brute_force", (5, k, q)))
    # The formula the oracle is checked against, asked for directly.
    for k in sorted({k for _, (n, k, q) in items}):
        for q in range(6):
            items.append(("weights.prefix_hq", (k, q)))
    # Naive-vs-bitparallel agreement on random sets, n <= 10.
    dims = range(2, 6) if tiny else range(2, 11)
    densities = (0.1, 0.3, 0.5, 0.7, 0.9)
    for n in dims:
        for d, density in enumerate(densities):
            for rep in range(1 if tiny else 2):
                q = (1 + d + 2 * rep) % (n + 1)
                bits = _random_bits(rng, n, density)
                items.append(("cube.naive", (n, bits, q, ("random",))))
                items.append(("cube.bitparallel", (n, bits, q, ("random",))))
    # is_optimal_set on initial segments.
    for n in range(3, 6 if tiny else 9):
        for j in range(4):
            k = 1 + rng.randrange(((1 << n) * j) // 4, ((1 << n) * (j + 1)) // 4)
            items.append(_segment("oracle.is_optimal", n, k, (n + j) % (n + 1)))
    # cubeseg oracle in every format. Slots are in order of cost, so the
    # middle one is the median CLI item. The sizes are fixed: k and 2^n - k
    # scan the same number of subsets, but their times differ by ~12%.
    cli_slots = ((2, 2, 1),) if tiny else ((2, 2, 1), (3, 3, 1), (4, 3, 2), (4, 4, 1), (4, 4, 2))
    for n, k, q in cli_slots:
        for fmt in FORMATS * CLI_REPEATS:
            argv = ("oracle", "--dim", str(n), "--k", str(k), "--q", str(q), "--output", fmt)
            items.append(("cli.run", argv))
    return items


# (n, q) of the initial-segment counts: every q up to n = 13, then the
# low and high q whose count takes at most ~0.1 s today. Mid q at n >= 14
# (0.1-6 s each) would let a few items dominate the pass.
SEGMENT_SLOTS = {
    12: range(1, 13),
    13: range(1, 14),
    14: (2, 3, 4, 5, 6, 10, 12, 13, 14),
    15: (2, 3, 4, 5, 12, 13, 14, 15),
    16: (2, 3, 4, 14, 15, 16),
    17: (1, 2, 3, 16, 17),
    18: (1, 2, 3, 17, 18),
}
SEGMENT_SLOTS_TINY = {8: range(1, 9), 9: (1, 4, 8), 10: (2, 9)}


def large_sets(rng: random.Random, tiny: bool) -> list:
    """Few large indicators: the bit-parallel kernel and prefix_hq."""
    items: list = []
    # Initial segments n = 12..18, each count paired with prefix_hq.
    slots = SEGMENT_SLOTS_TINY if tiny else SEGMENT_SLOTS
    fractions = (0.55, 0.7, 0.85, 1.0)
    for n, qs in slots.items():
        for j, q in enumerate(qs):
            k = min(1 << n, _jitter(rng, int((1 << n) * fractions[j % 4])))
            items.append(_segment("cube.bitparallel", n, k, q))
            items.append(("weights.prefix_hq", (k, q)))
    # Products A x B of two random 8-cube sets, counted at n = 16.
    half = 4 if tiny else 8
    for q in ((1, 2, 6, 7) if tiny else (1, 2, 3, 4, 5, 13, 14, 15)):
        a = _random_bits(rng, half, rng.uniform(0.5, 0.9))
        b = _random_bits(rng, half, rng.uniform(0.5, 0.9))
        origin = ("product", a, b, half)
        items.append(("cube.bitparallel", (2 * half, _product_bits(a, b, half), q, origin)))
    # three_term_report on random sets.
    for j in range(8 if tiny else 30):
        n = (6 if tiny else 10) + j % 5
        q = 1 + j % 4
        r = rng.randrange(n)
        bits = _set_with_both_sides(rng, n, 0.3 + 0.6 * (j % 7) / 6, r)
        items.append(("cube.three_term", (n, bits, q, r, ("random",))))
    # Vertex files written then read back.
    for j in range(4 if tiny else 10):
        n = (6 if tiny else 12) + j % 3
        bits = _random_bits(rng, n, 0.5)
        name = f"set{j}.txt"
        items.append(("cube.save", (n, bits, name)))
        items.append(("cube.load", (n, bits, name)))
    # cubeseg optimal --dim 20 at k in [2^18, 2^20], four per format.
    dim = 12 if tiny else 20
    lo = (1 << dim) // 4
    for j in range(12):
        k = _jitter(rng, int(lo * 4 ** (j / 12)))
        argv = ("optimal", "--dim", str(dim), "--q", str(1 + j % 4), "--k", str(k),
                "--output", FORMATS[j % 3])
        items.append(("cli.run", argv))
    # optimal --emit-set writes the segment that cubeseg count reads back.
    for j, fmt in enumerate(FORMATS):
        n = (6 if tiny else 14) + j
        k = _jitter(rng, (1 << n) * 3 // 5)
        path = f"{{work}}/emit{j}.txt"
        items.append(("cli.run", ("optimal", "--dim", str(n), "--q", "2", "--k", str(k),
                                  "--emit-set", path, "--output", fmt)))
    for j, fmt in enumerate(FORMATS):
        n = (6 if tiny else 14) + j
        path = f"{{work}}/emit{j}.txt"
        items.append(("cli.run", ("count", "--dim", str(n), "--q", str(2 + j),
                                  "--input", path, "--output", fmt)))
    return items


def _product_bits(a: int, b: int, half: int) -> int:
    """Indicator of A x B: vertex x | (y << half) for x in A, y in B."""
    bits = 0
    for y in range(1 << half):
        if b >> y & 1:
            bits |= a << (y << half)
    return bits


def structure(rng: random.Random, tiny: bool) -> list:
    """Special bijections and the max-recursion; no large sets."""
    items: list = []
    # Interval pairs with size s log-uniform in [1, 512], stratified. The
    # matcher's time moves by up to 30% with the offset between the
    # intervals, so each slot fixes the offset as a share of s and the
    # seed adds a jitter of 1/32 of s.
    slots = 12 if tiny else 60
    smax = 64 if tiny else 512
    for j in range(slots):
        s = max(1, min(smax, _jitter(rng, round(smax ** ((j + 0.5) / slots)), 0.02)))
        share = (j * 7 % 10) / 10
        jitter = rng.randrange(max(1, s // 32))
        shape = j % 3
        if shape == 0:  # zero-based, disjoint: strict inequalities
            ilo, jlo = 0, s + int(share * s) + jitter
        elif shape == 1:  # zero-based, overlapping (for s > 1)
            ilo, jlo = 0, 1 + max(0, min(s - 2, int(share * s) + jitter))
        elif s <= 64:  # lo > 0: a bijection may not exist
            ilo = 1 + rng.randrange(64)
            jlo = ilo + 1 + rng.randrange(2 * s)
        else:
            # Whether a bijection exists flips with a shift of one, and the
            # matcher's time with it by up to 100x: larger pairs with
            # lo > 0 keep one geometry per slot.
            ilo = 1 + j * 11 % 64
            jlo = ilo + 1 + int(share * 2 * s)
        pair = (ilo, ilo + s - 1, jlo, jlo + s - 1)
        items.append(("bijection.find", pair))
        if bijection_exists(*pair):
            items.append(("bijection.verify", (len(items) - 1,)))
    # The shifted weight-sum inequality on zero-based disjoint pairs.
    for j in range(8 if tiny else 30):
        s = 1 + rng.randrange(1 << (2 + j % 8))
        jlo = s + rng.randrange(s + 1)
        items.append(("bijection.inequality", (0, s - 1, jlo, jlo + s - 1, 1 + j % 4)))
    shapes = ((2, 128), (3, 256)) if tiny else ((6, 2048), (3, 4096), (8, 256), (4, 1024))
    for qmax, kmax in shapes:
        items.append(("recursion.build_table", (qmax, kmax)))
    kmax = 256 if tiny else 2048
    for j in range(16 if tiny else 60):
        lo = 2 + (kmax - 2) * j // (16 if tiny else 60)
        items.append(("recursion.hypercubic", (lo + rng.randrange(kmax // 60 + 1),)))
    items.append(("recursion.counterexample", (3, 64) if tiny else (4, 512)))
    # cubeseg fq | bijection | counterexample in every format. Slots are
    # in order of cost, so the middle one (fq) is the median CLI item. Its
    # kmax stays clear of 256, where fq's time steps up by ~40%.
    scale = 8 if tiny else 1

    def size(base):
        return _jitter(rng, base // scale)

    def bijection(s):
        jlo = s + s // 2 + rng.randrange(max(1, s // 32))
        return ("bijection", "0", str(s - 1), str(jlo), str(jlo + s - 1))

    def cli_slots():
        return (
            ("counterexample", "--qmax", "2", "--kmax", str(size(96))),
            bijection(size(96)),
            ("fq", "--q", "2", "--kmax", str(size(240))),
            bijection(size(192)),
            ("counterexample", "--qmax", "4", "--kmax", str(size(384))),
        )

    for argvs in zip(*(cli_slots() for _ in range(CLI_REPEATS))):
        for argv in argvs:
            for fmt in FORMATS:
                items.append(("cli.run", argv + ("--output", fmt)))
    return items


GENERATORS = {"exhaustive": exhaustive, "large_sets": large_sets, "structure": structure}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, tiny: bool = False) -> tuple[list, range]:
    """The items of one workload and the indices of its warm-up subset.

    The same seed gives the same items. The warm-up subset is the probes,
    appended last.
    """
    rng = random.Random(f"{workload}:{seed}")
    items = GENERATORS[workload](rng, tiny)
    first_probe = len(items)
    _add_probes(items, rng)
    return items, range(first_probe, len(items))
