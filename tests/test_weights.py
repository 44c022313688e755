"""Tests for weight histograms and prefix sums."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from cubeseg.weights import interval_histogram, prefix_hq, weight_histogram

import oracles


class TestPrefixHq:
    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_single_term_is_zero(self, q):
        assert prefix_hq(1, q) == 0

    @pytest.mark.parametrize("k", [1, 7, 100])
    def test_q_zero_counts_vertices(self, k):
        assert prefix_hq(k, 0) == k

    def test_edges_of_the_3_cube(self):
        # frozen from the independent edge oracle
        assert oracles.edge_count(range(8)) == 12
        assert prefix_hq(8, 1) == 12

    def test_faces_of_the_3_cube(self):
        assert oracles.subcube_count(range(8), 3, 2) == 6
        assert prefix_hq(8, 2) == 6

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            prefix_hq(0, 1)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            prefix_hq(5, -1)

    def test_matches_running_sum(self):
        # every k <= 4096 against one running per-element math.comb sum
        totals = [0] * 13
        for i in range(4096):
            w = oracles.popcount(i)
            for q in range(13):
                totals[q] += math.comb(w, q)
            for q in range(13):
                assert prefix_hq(i + 1, q) == totals[q], (i + 1, q)
        # and huge k, where q reaches past some blocks' weights, against
        # the weight histogram's sum term by term
        for k in (10**100, 2**300 - 1, 2**300 + 1):
            hist = weight_histogram(k)
            for q in (0, 1, 2, 50, 166, 300):
                expected = sum(c * math.comb(w, q) for w, c in enumerate(hist))
                assert prefix_hq(k, q) == expected, (k, q)

    def test_doubling_identities(self):
        # h(2i) = h(i) and h(2i+1) = h(i) + 1 give
        # P_q(2k) = 2 P_q(k) + P_{q-1}(k) and P_q(2k+1) = P_q(2k) + C(h(k), q)
        rng = random.Random(6)
        ks = [1, 2, 3, 10**30]
        ks += [rng.randint(1, 10 ** rng.randint(1, 30)) for _ in range(60)]
        for k in ks:
            for q in range(1, 13):
                even = prefix_hq(2 * k, q)
                assert even == 2 * prefix_hq(k, q) + prefix_hq(k, q - 1), (k, q)
                odd = even + math.comb(oracles.popcount(k), q)
                assert prefix_hq(2 * k + 1, q) == odd, (k, q)

    @given(st.integers(1, 400), st.integers(0, 8))
    def test_matches_reference_sum(self, k, q):
        assert prefix_hq(k, q) == oracles.prefix_sum(k, q)

    @given(st.integers(1, 300), st.integers(0, 6))
    def test_monotone_in_k(self, k, q):
        assert prefix_hq(k + 1, q) >= prefix_hq(k, q)


class TestWeightHistogram:
    def test_counts_every_integer_below_k(self):
        counts = Counter()
        for k in range(2049):
            hist = weight_histogram(k)
            assert sum(hist) == k
            assert hist == [counts[w] for w in range(k.bit_length())], k
            counts[oracles.popcount(k)] += 1

    @pytest.mark.parametrize("k", [10**6, 2**40 + 12345, 10**30])
    def test_large_k_sums_to_k(self, k):
        assert sum(weight_histogram(k)) == k

    def test_full_cube_is_a_binomial_row(self):
        for n in range(70):
            assert weight_histogram(2**n) == [math.comb(n, w) for w in range(n + 1)]

    def test_zero_is_empty(self):
        assert weight_histogram(0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            weight_histogram(-1)


class TestIntervalHistogram:
    def test_every_small_interval(self):
        for lo in range(130):
            counts = Counter()
            for hi in range(lo, 130):
                counts[oracles.popcount(hi)] += 1
                hist = interval_histogram(lo, hi)
                assert len(hist) == (hi + 1).bit_length(), (lo, hi)
                assert hist == [counts[w] for w in range(len(hist))], (lo, hi)

    def test_large_intervals_sum_to_their_size(self):
        rng = random.Random(11)
        for _ in range(200):
            lo = rng.randint(0, 10**30)
            hi = rng.randint(lo, 10**30)
            assert sum(interval_histogram(lo, hi)) == hi - lo + 1, (lo, hi)

    def test_top_entries_may_be_zero(self):
        assert interval_histogram(8, 8) == [0, 1, 0, 0]

    def test_negative_lo_rejected(self):
        with pytest.raises(ValueError):
            interval_histogram(-1, 3)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            interval_histogram(5, 4)


class TestPascalShift:
    def test_exhaustive_small(self):
        # C(h(2^l + i), q) = C(h(i), q) + C(h(i), q - 1) for i < 2^l
        for ell in range(9):
            for i in range(1 << ell):
                w, shifted = oracles.popcount(i), oracles.popcount((1 << ell) + i)
                for q in range(1, 7):
                    assert math.comb(shifted, q) == math.comb(w, q) + math.comb(w, q - 1)
