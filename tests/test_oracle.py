"""Tests for the exhaustive k-subset oracle."""

from itertools import combinations
from math import comb

import pytest

from cubeseg.cube import VertexSet, initial_segment
from cubeseg.oracle import (
    BudgetExceeded,
    brute_force_mq,
    is_optimal_set,
)
from cubeseg.weights import prefix_hq

import oracles


class TestBruteForce:
    def test_square_three_vertices(self):
        res = brute_force_mq(2, 3, 1)
        assert res.max_count == 2
        assert res.total_subsets_scanned == 4
        assert res.matches_formula

    def test_cube_five_vertices_two_faces(self):
        res = brute_force_mq(3, 5, 2)
        assert res.max_count == 1
        assert res.matches_formula

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 10])
    def test_full_cube_closed_form(self, n):
        for q in range(n + 1):
            res = brute_force_mq(n, 2**n, q)
            assert res.max_count == comb(n, q) * 2 ** (n - q)
            assert res.total_subsets_scanned == 1

    @pytest.mark.parametrize("n", [*range(1, 7), 8, 10])
    def test_all_but_one_vertex_closed_form(self, n):
        # Each missing vertex takes away the C(n, q) q-subcubes through it.
        # The complement walk scores each of the 2^n sets with one removal.
        for q in range(n + 1):
            res = brute_force_mq(n, 2**n - 1, q)
            assert res.max_count == comb(n, q) * (2 ** (n - q) - 1)
            assert res.total_subsets_scanned == 2**n

    def test_two_removed_from_the_8_cube(self):
        # Removing two vertices from the 8-cube; the maximum keeps the
        # initial segment's prefix sum.
        res = brute_force_mq(8, 254, 3, argmax_cap=1)
        assert res.max_count == prefix_hq(254, 3) == 1701
        assert res.matches_formula
        assert res.total_subsets_scanned == comb(256, 2)
        assert res.argmax_examples == (initial_segment(254, 8),)

    @pytest.mark.parametrize(
        "n,k",
        [(n, k) for n in range(1, 4) for k in range(1, 2**n + 1)]
        + [(4, k) for k in (2, 3, 8, 10, 11, 14, 15)]
        + [(5, 30), (5, 31)],
    )
    def test_matches_independent_reference(self, n, k):
        # Whole argmax list, in order, against itertools and an explicit
        # subcube generator. The scan walks the removed set instead once
        # 3k > 2^(n+1): from k = 6 at n = 3 and from k = 11 at n = 4, so
        # the n = 3 cases and n = 4 at k = 10 and 11 cover both sides of
        # the switch.
        for q in range(n + 1):
            counts = {
                combo: oracles.subcube_count(combo, n, q)
                for combo in combinations(range(2**n), k)
            }
            best = max(counts.values())
            res = brute_force_mq(n, k, q, argmax_cap=len(counts) + 1)
            assert res.max_count == best
            assert [tuple(S) for S in res.argmax_examples] == [
                combo for combo, count in counts.items() if count == best
            ]

    def test_too_small_for_any_subcube(self):
        res = brute_force_mq(3, 3, 2)
        assert res.max_count == 0
        assert res.matches_formula

    def test_budget_enforced_before_work(self):
        with pytest.raises(BudgetExceeded) as exc:
            brute_force_mq(4, 8, 1, budget=100)
        assert exc.value.required == 12870
        assert exc.value.budget == 100

    def test_initial_segment_leads_argmax(self):
        for n in range(1, 4):
            for k in range(1, 2**n + 1):
                for q in range(n + 1):
                    res = brute_force_mq(n, k, q, argmax_cap=2)
                    assert res.argmax_examples[0] == initial_segment(k, n)

    def test_argmax_is_lexicographically_capped(self):
        res = brute_force_mq(2, 3, 1, argmax_cap=2)
        # all four 3-subsets tie at 2 edges; the first two lex subsets win
        assert [tuple(S) for S in res.argmax_examples] == [(0, 1, 2), (0, 1, 3)]

    @pytest.mark.parametrize(
        "n,k",
        [(n, k) for n in range(1, 4) for k in range(1, 2**n + 1)]
        + [(4, k) for k in range(11, 17)]
        + [(5, 30), (5, 31)],
    )
    def test_capped_argmax_is_prefix_of_uncapped(self, n, k):
        # A cap keeps the first entries of the full list, in scan order.
        # n <= 3 covers both walks; n = 4 at k >= 11 and n = 5 at k >= 30
        # are complement walks where ties often outnumber the cap.
        for q in range(n + 1):
            full = brute_force_mq(n, k, q, argmax_cap=comb(2**n, k)).argmax_examples
            for cap in range(4):
                res = brute_force_mq(n, k, q, argmax_cap=cap)
                assert res.argmax_examples == full[:cap], (q, cap)

    def test_argmax_cap_zero(self):
        res = brute_force_mq(2, 2, 1, argmax_cap=0)
        assert res.argmax_examples == ()
        assert res.max_count == 1

    def test_deterministic_across_runs(self):
        first = brute_force_mq(3, 4, 1)
        second = brute_force_mq(3, 4, 1)
        assert first == second

    def test_matches_formula_everywhere_small(self):
        for n in range(1, 4):
            for k in range(1, 2**n + 1):
                for q in range(n + 1):
                    assert brute_force_mq(n, k, q).matches_formula

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            brute_force_mq(0, 1, 0)
        with pytest.raises(ValueError):
            brute_force_mq(2, 0, 1)
        with pytest.raises(ValueError):
            brute_force_mq(2, 5, 1)
        with pytest.raises(ValueError):
            brute_force_mq(2, 2, 3)
        with pytest.raises(ValueError):
            brute_force_mq(2, 2, 1, argmax_cap=-1)
        with pytest.raises(ValueError):
            brute_force_mq(2, 2, 1, budget=0)

    @pytest.mark.parametrize("n", [21, 64, 20000])
    def test_dimension_bounded_before_work(self, n):
        # No set of a cube beyond dimension 20 can be built, so this is an
        # input error and not a budget overrun.
        with pytest.raises(ValueError, match="dim"):
            brute_force_mq(n, 2, 0)


class TestIsOptimal:
    def test_initial_segments_are_optimal(self):
        for n in range(1, 4):
            for k in range(1, 2**n + 1):
                for q in range(n + 1):
                    assert is_optimal_set(initial_segment(k, n), q)

    def test_antipodal_pair_is_not(self):
        assert not is_optimal_set(VertexSet(2, [0, 3]), 1)

    def test_singleton_vertex_count(self):
        assert is_optimal_set(VertexSet(3, [5]), 0)

    def test_empty_set(self):
        assert is_optimal_set(VertexSet(3, []), 1)
