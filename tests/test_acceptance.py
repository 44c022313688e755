"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All comparisons are exact integer/set equalities; no tolerances apply
anywhere in this artifact.
"""

import random
from math import comb

import pytest

from cubeseg.bijection import (
    Interval,
    check_shifted_hq_inequality,
    find_special_bijection,
    verify_special,
)
from cubeseg.cube import (
    VertexSet,
    count_subcubes_bitparallel,
    count_subcubes_naive,
    split,
    three_term_report,
)
from cubeseg.oracle import brute_force_mq
from cubeseg.recursion import (
    build_table,
    find_onlyif_counterexamples,
    hypercubic_partitions,
)
from cubeseg.weights import prefix_hq

import oracles

KMAX = 2048


def report(num, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num:02d}] {label}: {status}")
    assert not failures, f"criterion {num} ({label}): {failures[:5]}"


@pytest.fixture(scope="module")
def table6():
    return build_table(6, KMAX)


@pytest.fixture(scope="module")
def full_scan6():
    """``(values, maximizer_sets)`` of an unpruned scan of every split."""
    return oracles.recursion_table_full_scan(6, KMAX)


@pytest.fixture(scope="module")
def hypercubic_by_k():
    return {k: hypercubic_partitions(k) for k in range(2, KMAX + 1)}


def test_criterion_01_oracle_equivalence():
    failures = []
    cases = [(n, k, q) for n in range(1, 6) for k in range(1, 2**n + 1) for q in range(n + 1)]
    cases += [(6, k, q) for k in (*range(1, 8), *range(60, 65)) for q in range(7)]
    for n, k, q in cases:
        res = brute_force_mq(n, k, q, argmax_cap=1, budget=10**9)
        if not res.matches_formula:
            failures.append((n, k, q, res.max_count, prefix_hq(k, q)))
    report(
        1,
        "exhaustive maxima equal prefix sums for every (n, k, q) with n <= 5,"
        " and with n = 6 at k <= 7 and k >= 60",
        failures,
    )


# build_table tabulates the closed form, so the prefix sums are also
# compared with the recursion itself, evaluated by a scan of every split.
def test_criterion_02_closed_form(table6, full_scan6):
    failures = []
    scanned, _ = full_scan6
    for q in range(7):
        running = 0
        for k in range(1, KMAX + 1):
            running += comb(oracles.popcount(k - 1), q)
            if table6.values[q][k] != running or scanned[q][k] != running:
                failures.append((q, k, table6.values[q][k], scanned[q][k], running))
    report(
        2,
        "recursion table and a scan of every split equal prefix sums up to k=2048",
        failures,
    )


def test_criterion_03_hypercubic_are_maximizers(table6, full_scan6, hypercubic_by_k):
    failures = []
    for k in range(2, KMAX + 1):
        hyper = hypercubic_by_k[k]
        for q in range(1, 6):
            if not hyper <= set(table6.maximizer_sets[(q, k)]):
                failures.append((q, k))
    # build_table against an unpruned scan of every split and against the
    # tail rule, which never evaluates the recursion
    built = set(table6.maximizer_sets.items())
    _, full_scan = full_scan6
    failures += sorted(set(full_scan.items()) ^ built)
    tail_rule = oracles.tail_rule_maximizer_sets(6, KMAX)
    failures += sorted(set(tail_rule.items()) ^ built)
    report(
        3,
        "every hypercubic size maximizes, q <= 5, and every maximizer set "
        "equals a full scan and the tail rule, q <= 6, k <= 2048",
        failures,
    )


def test_criterion_04_q1_equivalence(table6, hypercubic_by_k):
    failures = []
    for k in range(2, KMAX + 1):
        if set(table6.maximizer_sets[(1, k)]) != hypercubic_by_k[k]:
            failures.append(k)
    report(4, "q=1 maximizers equal hypercubic sizes exactly", failures)


def test_criterion_05_onlyif_fails_above_q1():
    failures = []
    records = find_onlyif_counterexamples(3, 16)
    if not records:
        failures.append("no counterexamples found")
    by_key = {(r.q, r.k): set(r.non_hypercubic_maximizers) for r in records}
    if (3, 11) not in by_key or not {1, 2} <= by_key.get((3, 11), set()):
        failures.append(f"missing expected witness, got {by_key}")
    # confirm the frozen witness by independent recursive descent
    if oracles.recursion_argmax(3, 11) != {1, 2, 3, 4, 5}:
        failures.append("independent argmax disagrees")
    if oracles.hypercubic_sizes(11) != {3, 4, 5}:
        failures.append("independent hypercubic sizes disagree")
    report(5, "non-hypercubic maximizers exist for q=3", failures)


def test_criterion_06_special_bijections_exist():
    failures = []
    for s in range(1, 256):
        for j0 in range(1, 257 - s):
            w = find_special_bijection(Interval(0, s - 1), Interval(j0, j0 + s - 1))
            if w is None or not verify_special(w):
                failures.append((s, j0))
    rng = random.Random(20260810)
    for _ in range(100):
        s = rng.randint(1, 4096)
        j0 = rng.randint(1, 8192 - s)
        w = find_special_bijection(Interval(0, s - 1), Interval(j0, j0 + s - 1))
        if w is None or not verify_special(w):
            failures.append(("random", s, j0))
    report(6, "verified witnesses for all zero-based pairs in [0:255]", failures)


def test_criterion_07_shifted_inequality():
    failures = []
    for s in range(1, 65):
        for j0 in range(s, 129 - s):
            I, J = Interval(0, s - 1), Interval(j0, j0 + s - 1)
            for q in range(1, 8):
                res = check_shifted_hq_inequality(I, J, q)
                if not res.holds:
                    failures.append((s, j0, q, res.lhs, res.rhs))
    rng = random.Random(20261018)
    for _ in range(100):
        s = rng.randint(1, 2**20)
        j0 = rng.randint(s, 2**21 - s)
        I, J = Interval(0, s - 1), Interval(j0, j0 + s - 1)
        for q in range(1, 22):
            res = check_shifted_hq_inequality(I, J, q)
            if not res.holds:
                failures.append(("random", s, j0, q, res.lhs, res.rhs))
    report(7, "shifted weight sums bounded on disjoint pairs in [0:127]", failures)


def test_criterion_08_kernel_equivalence():
    failures = []
    rng = random.Random(808)
    for _ in range(200):
        n = rng.randint(1, 10)
        density = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        bits = 0
        for v in range(1 << n):
            if rng.random() < density:
                bits |= 1 << v
        S = VertexSet.from_bits(n, bits)
        for q in range(n + 1):
            naive = count_subcubes_naive(S, q)
            fast = count_subcubes_bitparallel(S, q)
            if naive != fast:
                failures.append((n, len(S), q, naive, fast))
    report(8, "naive and bit-parallel kernels agree on 200 random sets", failures)


def test_criterion_09_three_term_bound():
    failures = []
    rng = random.Random(909)
    done = 0
    while done < 500:
        n = rng.randint(2, 8)
        density = rng.choice((0.2, 0.4, 0.6, 0.8))
        members = [v for v in range(1 << n) if rng.random() < density]
        if not members:
            continue
        S = VertexSet(n, members)
        r = rng.randrange(n)
        s0, s1 = split(S, r)
        if not len(s0) or not len(s1):
            continue
        q = rng.randint(1, n)
        rep = three_term_report(S, q, r)
        if rep.mq_total > rep.bound:
            failures.append((n, members, q, r))
        if rep.bound != rep.mq_heavy + rep.mq_light + rep.mq1_light:
            failures.append(("bound mismatch", n, members, q, r))
        done += 1
    # frozen exactness examples
    cases = [
        (VertexSet(2, [0, 1, 2, 3]), (4, 1, 1, 2, True)),
        (VertexSet(2, [0, 3]), (0, 0, 0, 1, False)),
        (VertexSet(2, [0, 1]), (1, 0, 0, 1, True)),
    ]
    for S, expected in cases:
        rep = three_term_report(S, 1, 0)
        got = (rep.mq_total, rep.mq_heavy, rep.mq_light, rep.mq1_light, rep.exact)
        if got != expected:
            failures.append((tuple(S), got, expected))
    report(9, "decomposition bound holds on 500 random splits", failures)


def test_criterion_10_pascal_shift():
    failures = []
    for ell in range(13):
        power = 1 << ell
        for i in range(power):
            w, shifted = oracles.popcount(i), oracles.popcount(power + i)
            for q in range(1, 7):
                if comb(shifted, q) != comb(w, q) + comb(w, q - 1):
                    failures.append((ell, i, q))
    report(10, "weight shift identity for all l <= 12", failures)
