"""Tests for special bijections and the weighted-sum inequality checks."""

import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cubeseg.bijection import (
    BijectionWitness,
    Interval,
    check_g_inequality,
    check_shifted_hq_inequality,
    find_special_bijection,
    intervals_overlap,
    verify_special,
)

import oracles


class TestInterval:
    def test_size(self):
        assert Interval(2, 5).size == 4
        assert Interval(3, 3).size == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            Interval(3, 2)
        with pytest.raises(ValueError):
            Interval(-1, 2)

    def test_iteration(self):
        assert list(Interval(1, 3)) == [1, 2, 3]


class TestOverlap:
    def test_disjoint(self):
        assert not intervals_overlap(Interval(0, 1), Interval(2, 3))

    def test_sharing_two(self):
        assert intervals_overlap(Interval(0, 2), Interval(1, 3))

    def test_identical_singletons(self):
        assert intervals_overlap(Interval(0, 0), Interval(0, 0))


class TestFindSpecialBijection:
    def test_disjoint_pair(self):
        w = find_special_bijection(Interval(0, 1), Interval(2, 3))
        assert w is not None
        assert w.strict_required
        assert verify_special(w)
        # deterministic witness, frozen after verification
        assert w.map == ((0, 2), (1, 3))

    def test_overlapping_pair(self):
        w = find_special_bijection(Interval(0, 2), Interval(1, 3))
        assert w is not None
        assert not w.strict_required
        assert verify_special(w)
        assert w.map == ((0, 1), (1, 2), (2, 3))

    @pytest.mark.parametrize("j", [1, 5, 64])
    def test_singleton_from_zero(self, j):
        w = find_special_bijection(Interval(0, 0), Interval(j, j))
        assert w is not None
        assert w.strict_required
        assert w.map == ((0, j),)
        assert verify_special(w)

    def test_impossible_shifted_singleton(self):
        # needs h(3)=2 < h(4)=1, which fails
        assert find_special_bijection(Interval(3, 3), Interval(4, 4)) is None

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            find_special_bijection(Interval(0, 1), Interval(2, 4))

    def test_ordering_violation_rejected(self):
        with pytest.raises(ValueError):
            find_special_bijection(Interval(2, 3), Interval(0, 1))
        with pytest.raises(ValueError):
            find_special_bijection(Interval(1, 2), Interval(1, 2))

    def test_exists_for_every_zero_based_pair_up_to_16(self):
        for s in range(1, 16):
            for j0 in range(1, 17 - s):
                w = find_special_bijection(
                    Interval(0, s - 1), Interval(j0, j0 + s - 1)
                )
                assert w is not None, (s, j0)
                assert verify_special(w), (s, j0)

    def test_nonzero_start_can_go_either_way(self):
        # weights (1,1) against (2,2): strictness is satisfiable
        w = find_special_bijection(Interval(1, 2), Interval(5, 6))
        assert w is not None and verify_special(w)
        # weights (1,2) against (1,2): the weight-2 source blocks every matching
        assert find_special_bijection(Interval(2, 3), Interval(4, 5)) is None
        # weights (1,1) against (2,1): 4 cannot strictly dominate either source
        assert find_special_bijection(Interval(1, 2), Interval(3, 4)) is None

    def test_long_interval_without_bijection(self):
        I, J = Interval(1, 2**16), Interval(2**16 + 1, 2**17)
        assert find_special_bijection(I, J) is None
        # an independent sort-and-pair: some rank pair cannot rise strictly
        sources = sorted(map(oracles.popcount, I))
        targets = sorted(map(oracles.popcount, J))
        assert any(p < i + 1 for i, p in zip(sources, targets))

    # Intervals of 2^20 integers, the vertex count of the largest cube, are
    # the largest accepted; Hall's condition fails on this pair before
    # anything is sorted.
    def test_largest_intervals_accepted(self):
        I, J = Interval(1, 2**20), Interval(2**20 + 1, 2**21)
        tracemalloc.start()
        try:
            assert find_special_bijection(I, J) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("lo", [0, 1])
    def test_refused_past_the_size_bound(self, lo):
        size = 2**20 + 1
        I, J = Interval(lo, lo + size - 1), Interval(lo + size, lo + 2 * size - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="past the bound of 1048576"):
                find_special_bijection(I, J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    # Endpoints below 2^64 are accepted. The Hall check's weight histograms
    # take O(b^2) binomials of b-bit endpoints, so larger ones are refused
    # before any histogram (2^2000 - 1 took over a minute).
    @pytest.mark.parametrize("end", [2**64, 2**64 + 1, 2**200], ids=["2^64", "2^64+1", "2^200"])
    def test_refused_past_the_endpoint_bound(self, end):
        with pytest.raises(ValueError, match=r"past the bound of 2\^64"):
            find_special_bijection(Interval(0, 0), Interval(end, end))
        with pytest.raises(ValueError, match=r"past the bound of 2\^64"):
            find_special_bijection(Interval(end - 3, end - 2), Interval(end - 1, end))
        w = find_special_bijection(Interval(0, 0), Interval(2**64 - 1, 2**64 - 1))
        assert w is not None and verify_special(w)

    def test_existence_matches_sort_and_pair(self):
        rng = random.Random(2026)
        for _ in range(1000):
            lo = rng.randint(0, 300)
            s = rng.randint(1, 64)
            j0 = rng.randint(lo + 1, lo + 200)
            I, J = Interval(lo, lo + s - 1), Interval(j0, j0 + s - 1)
            need = 1 if I.hi < J.lo else 0
            sources = sorted(map(oracles.popcount, I))
            targets = sorted(map(oracles.popcount, J))
            exists = all(i + need <= p for i, p in zip(sources, targets))
            w = find_special_bijection(I, J)
            assert (w is not None) == exists, (I, J)
            assert w is None or verify_special(w), (I, J)

    def test_existence_matches_brute_force_away_from_zero(self):
        for lo in range(1, 17):
            for s in range(1, 7):
                for j0 in range(lo + 1, lo + 33):
                    I, J = Interval(lo, lo + s - 1), Interval(j0, j0 + s - 1)
                    w = find_special_bijection(I, J)
                    exists = oracles.special_bijection_exists(I.lo, I.hi, J.lo, J.hi)
                    assert (w is not None) == exists, (I, J)
                    assert w is None or verify_special(w), (I, J)


class TestVerifySpecial:
    def test_accepts_constructor_output(self):
        rng = random.Random(3)
        for _ in range(50):
            s = rng.randint(1, 40)
            j0 = rng.randint(1, 80)
            w = find_special_bijection(Interval(0, s - 1), Interval(j0, j0 + s - 1))
            assert w is not None and verify_special(w)

    def test_accepts_alternative_valid_map(self):
        # verification judges the definition, not the constructor's choice:
        # targets 5 and 6 both have weight 2, so either assignment is fine
        constructed = find_special_bijection(Interval(0, 1), Interval(5, 6))
        swapped = BijectionWitness(
            source=Interval(0, 1),
            target=Interval(5, 6),
            map=tuple((i, 11 - p) for i, p in constructed.map),
            strict_required=True,
        )
        assert swapped.map != constructed.map
        assert verify_special(constructed)
        assert verify_special(swapped)

    def test_rejects_swap_that_loses_strictness(self):
        # h(1) = h(2) = 1: mapping 1 to 2 cannot be strict, and the
        # disjoint intervals [0:1], [2:3] demand strictness everywhere
        w = BijectionWitness(
            source=Interval(0, 1),
            target=Interval(2, 3),
            map=((0, 3), (1, 2)),
            strict_required=True,
        )
        assert not verify_special(w)

    def test_rejects_repeated_target(self):
        w = BijectionWitness(
            source=Interval(0, 1),
            target=Interval(2, 3),
            map=((0, 2), (1, 2)),
            strict_required=True,
        )
        assert not verify_special(w)

    def test_rejects_missing_source(self):
        w = BijectionWitness(
            source=Interval(0, 1),
            target=Interval(2, 3),
            map=((0, 2), (0, 3)),
            strict_required=True,
        )
        assert not verify_special(w)

    def test_rejects_weight_violation(self):
        # 3 has weight 2 but 4 only 1
        w = BijectionWitness(
            source=Interval(3, 3),
            target=Interval(4, 4),
            map=((3, 4),),
            strict_required=True,
        )
        assert not verify_special(w)

    def test_rejects_wrong_strict_flag(self):
        w = BijectionWitness(
            source=Interval(0, 1),
            target=Interval(2, 3),
            map=((0, 2), (1, 3)),
            strict_required=False,  # intervals are disjoint, flag must be True
        )
        assert not verify_special(w)

    def test_rejects_non_strict_pair_when_strict_required(self):
        w = BijectionWitness(
            source=Interval(0, 1),
            target=Interval(4, 5),
            map=((0, 5), (1, 4)),  # h(1) = h(4) = 1 is not strict
            strict_required=True,
        )
        assert not verify_special(w)

    def test_rejects_size_mismatch(self):
        w = BijectionWitness(
            source=Interval(0, 1),
            target=Interval(2, 4),
            map=((0, 2), (1, 3)),
            strict_required=True,
        )
        assert not verify_special(w)


class TestGInequality:
    def test_identity_on_disjoint_pair(self):
        res = check_g_inequality(Interval(0, 1), Interval(2, 3), list(range(8)))
        assert (res.lhs, res.rhs) == (1, 3)
        assert res.holds and res.strict

    def test_constant_is_equality(self):
        res = check_g_inequality(Interval(0, 3), Interval(4, 7), [5] * 8)
        assert res.lhs == res.rhs
        assert res.holds and not res.strict

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            check_g_inequality(Interval(0, 1), Interval(2, 3), [0, 2, 1])

    def test_short_table_rejected(self):
        with pytest.raises(ValueError):
            check_g_inequality(Interval(0, 1), Interval(6, 7), [0, 1])

    def test_short_table_rejected_on_source_weight(self):
        # weight 3 occurs only in the source; the target [8:8] has weight 1
        with pytest.raises(ValueError, match="need 3"):
            check_g_inequality(Interval(7, 7), Interval(8, 8), [0, 1])

    def test_zero_top_entries_need_no_table(self):
        # [8:8] spans bit length 4 but only weight 1 occurs in it
        res = check_g_inequality(Interval(8, 8), Interval(9, 9), [0, 1, 5])
        assert (res.lhs, res.rhs, res.strict) == (1, 5, True)

    @pytest.mark.parametrize("step", [
        lambda rng: rng.randint(0, 9),
        lambda rng: Fraction(rng.randint(0, 9), rng.randint(1, 4)),
    ], ids=["int", "Fraction"])
    def test_matches_per_element_sums(self, step):
        # sources away from 0 and overlapping pairs, which no bijection
        # argument covers, against sums over every integer
        rng = random.Random(5)
        for _ in range(300):
            s = rng.randint(1, 80)
            lo = rng.randint(1, 200)
            j0 = rng.randint(lo + 1, lo + 2 * s)
            I, J = Interval(lo, lo + s - 1), Interval(j0, j0 + s - 1)
            g = list(accumulate(step(rng) for _ in range(10)))
            lhs = sum(g[oracles.popcount(i)] for i in I)
            rhs = sum(g[oracles.popcount(j)] for j in J)
            res = check_g_inequality(I, J, g)
            assert (res.lhs, res.rhs) == (lhs, rhs), (I, J, g)
            assert (res.holds, res.strict) == (lhs <= rhs, lhs < rhs), (I, J, g)

    # Endpoints below 2^64 are accepted. The weight histograms take O(b^2)
    # binomials of b-bit endpoints, so larger ones, on either side, are
    # refused before either histogram (2^1024 - 1 took 6.9 s).
    @pytest.mark.parametrize("end", [2**64, 2**64 + 1, 2**200], ids=["2^64", "2^64+1", "2^200"])
    def test_refused_past_the_endpoint_bound(self, end):
        g = list(range(201))
        with pytest.raises(ValueError, match=r"past the bound of 2\^64"):
            check_g_inequality(Interval(0, 0), Interval(end, end), g)
        with pytest.raises(ValueError, match=r"past the bound of 2\^64"):
            check_g_inequality(Interval(end - 1, end), Interval(0, 1), g)
        res = check_g_inequality(Interval(0, 0), Interval(2**64 - 1, 2**64 - 1), g)
        assert (res.lhs, res.rhs, res.holds, res.strict) == (0, 64, True, True)

    def test_large_zero_based_source(self):
        # 2^20 integers of the 20-cube: half of the 20 coordinates are 1 on average
        s = 1 << 20
        I, J = Interval(0, s - 1), Interval(s + 12345, 2 * s + 12344)
        res = check_g_inequality(I, J, list(range(22)))
        assert res.lhs == 20 * 2**19
        assert res.holds and res.strict

    @pytest.mark.parametrize("q", range(7))
    def test_nondecreasing_families_hold_from_zero(self, q):
        # every zero-based pair inside [0:63] admits a special bijection,
        # so any non-decreasing g must satisfy the sum inequality
        tables = {
            "constant": [3] * 11,
            "identity": list(range(11)),
            "binomial": [comb(m, q) for m in range(11)],
        }
        rng = random.Random(q)
        for _ in range(40):
            s = rng.randint(1, 31)
            j0 = rng.randint(1, 64 - s)
            I, J = Interval(0, s - 1), Interval(j0, j0 + s - 1)
            for name, g in tables.items():
                res = check_g_inequality(I, J, g)
                assert res.holds, (name, s, j0)
            if not intervals_overlap(I, J):
                assert check_g_inequality(I, J, list(range(11))).strict, (s, j0)


class TestShiftedHqInequality:
    def test_adjacent_pair_is_tight(self):
        res = check_shifted_hq_inequality(Interval(0, 1), Interval(2, 3), 1)
        assert (res.lhs, res.rhs, res.holds) == (3, 3, True)

    def test_far_pair_has_slack(self):
        res = check_shifted_hq_inequality(Interval(0, 1), Interval(6, 7), 1)
        assert (res.lhs, res.rhs, res.holds) == (3, 5, True)

    def test_large_q_vanishes(self):
        res = check_shifted_hq_inequality(Interval(0, 1), Interval(2, 3), 5)
        assert (res.lhs, res.rhs, res.holds) == (0, 0, True)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            check_shifted_hq_inequality(Interval(0, 2), Interval(1, 3), 1)

    def test_nonzero_start_rejected(self):
        with pytest.raises(ValueError):
            check_shifted_hq_inequality(Interval(1, 2), Interval(4, 5), 1)

    def test_q_zero_rejected(self):
        with pytest.raises(ValueError):
            check_shifted_hq_inequality(Interval(0, 1), Interval(2, 3), 0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_shifted_hq_inequality(Interval(0, 1), Interval(4, 6), 1)

    def test_matches_per_element_sums(self):
        for s in range(1, 48):
            for j0 in range(s, 3 * s):
                I, J = Interval(0, s - 1), Interval(j0, j0 + s - 1)
                src = [oracles.popcount(i) for i in I]
                dst = [oracles.popcount(j) for j in J]
                for q in range(1, 5):
                    lhs = sum(comb(w, q) + comb(w, q - 1) for w in src)
                    rhs = sum(comb(w, q) for w in dst)
                    res = check_shifted_hq_inequality(I, J, q)
                    assert (res.lhs, res.rhs) == (lhs, rhs), (s, j0, q)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 32), st.data(), st.integers(1, 6))
    def test_holds_for_all_zero_based_disjoint_pairs(self, s, data, q):
        j0 = data.draw(st.integers(s, 64 - s))
        res = check_shifted_hq_inequality(Interval(0, s - 1), Interval(j0, j0 + s - 1), q)
        assert res.holds
