"""Tests for Hamming weights, binomials, and prefix sums."""

import math

import pytest
from hypothesis import given, strategies as st

from cubeseg.weights import binom, h_q, hamming_weight, prefix_hq

import oracles


class TestHammingWeight:
    def test_zero(self):
        assert hamming_weight(0) == 0

    def test_all_ones(self):
        assert hamming_weight(7) == 3

    def test_power_of_two_shift(self):
        # 13 = 2^3 + 5 gains exactly one bit over 5
        assert hamming_weight(13) == 1 + hamming_weight(5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hamming_weight(-1)

    @given(st.integers(0, 2**60))
    def test_doubling_recursion(self, i):
        assert hamming_weight(2 * i) == hamming_weight(i)
        assert hamming_weight(2 * i + 1) == hamming_weight(i) + 1

    @given(st.integers(0, 2**60))
    def test_matches_string_popcount(self, i):
        assert hamming_weight(i) == oracles.popcount(i)


class TestBinom:
    @pytest.mark.parametrize("m", [0, 1, 5, 40])
    def test_choose_zero(self, m):
        assert binom(m, 0) == 1

    def test_three_choose_two(self):
        assert binom(3, 2) == 3

    def test_q_above_m(self):
        assert binom(0, 2) == 0

    def test_q_negative(self):
        assert binom(5, -1) == 0

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            binom(-1, 0)

    @given(st.integers(0, 200), st.integers(-5, 205))
    def test_matches_math_comb(self, m, q):
        expected = math.comb(m, q) if 0 <= q <= m else 0
        assert binom(m, q) == expected


class TestHq:
    @given(st.integers(0, 2**20))
    def test_q_zero_is_one(self, i):
        assert h_q(i, 0) == 1

    def test_examples(self):
        assert h_q(6, 1) == 2
        assert h_q(7, 2) == 3

    def test_vanishes_above_weight(self):
        assert h_q(7, 4) == 0

    @given(st.integers(0, 2**16), st.integers(0, 20))
    def test_matches_comb_of_popcount(self, i, q):
        assert h_q(i, q) == math.comb(oracles.popcount(i), q)


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

    @given(st.integers(1, 400), st.integers(0, 8))
    def test_matches_reference_sum(self, k, q):
        assert prefix_hq(k, q) == oracles.prefix_sum(k, q)

    @given(st.integers(1, 300), st.integers(0, 6))
    def test_monotone_in_k(self, k, q):
        assert prefix_hq(k + 1, q) >= prefix_hq(k, q)


class TestPascalShift:
    def test_exhaustive_small(self):
        # h_q(2^l + i) = h_q(i) + h_{q-1}(i) for i < 2^l
        for ell in range(9):
            for i in range(1 << ell):
                for q in range(1, 7):
                    assert h_q((1 << ell) + i, q) == h_q(i, q) + h_q(i, q - 1)
