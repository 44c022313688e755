"""Tests for the max-recursion table, maximizers, and hypercubic partitions."""

import functools
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from cubeseg import recursion
from cubeseg.cube import initial_segment, count_subcubes_naive
from cubeseg.recursion import (
    build_table,
    find_onlyif_counterexamples,
    hypercubic_partitions,
)
from cubeseg.weights import prefix_hq

import oracles


@pytest.fixture(scope="module")
def table():
    return build_table(4, 64)


class TestBuildTable:
    def test_base_row_counts_vertices(self, table):
        assert table.values[0] == list(range(65))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_single_vertex_is_zero(self, table, q):
        assert table.value(q, 1) == 0

    def test_known_entries(self, table):
        assert table.value(1, 6) == 7
        assert table.value(2, 8) == 6
        assert table.value(3, 11) == 1

    def test_matches_recursive_descent(self, table):
        for q in range(4):
            for k in range(1, 65):
                assert table.value(q, k) == oracles.recursion_value(q, k)

    def test_closed_form_small(self, table):
        for q in range(5):
            for k in range(1, 65):
                assert table.value(q, k) == prefix_hq(k, q)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            build_table(-1, 5)
        with pytest.raises(ValueError):
            build_table(2, 0)

    def test_value_range_checks(self, table):
        with pytest.raises(ValueError):
            table.value(5, 3)
        with pytest.raises(ValueError):
            table.value(1, 65)

    def test_maximizer_sets_never_empty(self, table):
        for q in range(1, 5):
            for k in range(2, 65):
                assert table.maximizer_sets[(q, k)]

    # build_table reads each maximizer set off the split of k = 2^p + r,
    # row by row from q = 1 (module docstring). (6, 98) holds the small k
    # of every row; (3, 1100) holds k = 2^m - 1, 2^m, 2^m + 1 for m = 9
    # and m = 10, and (3, 128), (8, 256) and (6, 64) end at k = 2^m, where
    # r = 0 and the only shifted entry is 2^(m-1); (2, 96) ends at
    # r = 2^(p-1), where the shifted {0} drops. (3, 1) .. (3, 3) score at
    # most one split per k. Below k = 2^q every split of k ties in row q
    # (the tie rule). Row b = kmax.bit_length() is the first whose every k
    # lies below 2^q: row 9 of (12, 300), 6 of (16, 40) and 7 of (30, 100).
    # It is the top row, and every row after it shares its tuples.
    @pytest.mark.parametrize(
        "qmax,kmax",
        [
            (6, 98),
            (8, 256),
            (6, 64),
            (4, 48),
            (6, 86),
            (8, 600),
            (3, 1100),
            (3, 2560),
            (12, 300),
            (16, 40),
            (30, 100),
            (3, 1),
            (3, 2),
            (3, 3),
            (2, 96),
            (3, 128),
            (1, 76),
        ],
    )
    def test_matches_full_scan(self, qmax, kmax):
        built = build_table(qmax, kmax)
        values, maximizer_sets = oracles.recursion_table_full_scan(qmax, kmax)
        assert built.values == values
        assert built.maximizer_sets == maximizer_sets

    # Every k <= 1024 lies below 2^q for q >= 11, so by the tie rule every
    # F_q(k) is 0 and every split ties; row 11 is the top row, and rows 12
    # to 40 share its tuples
    def test_copied_all_tie_rows(self):
        table = build_table(40, 1024)
        assert table.values[40] == [0] * 1025
        assert table.maximizer_sets[(40, 1024)] == tuple(range(1, 513))

    # F_q(k) never falls as k grows: a maximizer k' of F_q(k) is also a
    # split of k + 1, where F_q(k + 1 - k') >= F_q(k - k') by induction.
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 8), st.integers(1, 700))
    def test_rows_nondecreasing(self, qmax, kmax):
        for row in build_table(qmax, kmax).values:
            assert all(a <= b for a, b in zip(row[1:], row[2:]))

    # build_table tabulates the closed form and keeps the splits that reach
    # it; the full scan evaluates the recursion itself, on any shape.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), st.integers(1, 300))
    def test_matches_full_scan_on_random_shapes(self, qmax, kmax):
        built = build_table(qmax, kmax)
        values, maximizer_sets = oracles.recursion_table_full_scan(qmax, kmax)
        assert built.values == values
        assert built.maximizer_sets == maximizer_sets


class TestTableBounds:
    # (1, 16384) spans exactly _MAX_SPLITS splits and (2^20 - 1, 1), with
    # no split, holds exactly _MAX_CELLS values.
    def test_largest_tables_build(self):
        assert 16384 * 16384 // 4 == recursion._MAX_SPLITS
        assert build_table(1, 16384).value(1, 16384) == prefix_hq(16384, 1)
        assert 2**20 == recursion._MAX_CELLS
        assert build_table(2**20 - 1, 1).value(2**20 - 1, 1) == 0

    @pytest.mark.parametrize(
        "qmax,kmax", [(1, 16385), (2, 16384), (2**20, 1), (2**18, 4), (1, 10**8), (10**30, 1)]
    )
    def test_refused_before_anything_is_allocated(self, qmax, kmax):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="past the bounds"):
                build_table(qmax, kmax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_counterexample_scan_refused(self):
        with pytest.raises(ValueError, match="past the bounds"):
            find_onlyif_counterexamples(2, 10**8)

    # (24, 2048) lists 15,534,322 maximizers, just inside _MAX_LISTED, in
    # ~0.3 s; the all-tie rows of (64, 2048) would list ~55 million, and the
    # scan stops once its records pass the bound.
    def test_largest_counterexample_report_listed(self):
        records = find_onlyif_counterexamples(24, 2048)
        listed = sum(len(rec.non_hypercubic_maximizers) for rec in records)
        assert listed == 15_534_322 <= recursion._MAX_LISTED

    def test_counterexample_report_past_the_bound_refused(self):
        with pytest.raises(ValueError, match="past the bound"):
            find_onlyif_counterexamples(64, 2048)


class TestMaximizers:
    def test_known_sets(self, table):
        assert table.maximizer_sets[(1, 6)] == (2, 3)
        assert table.maximizer_sets[(2, 8)] == (4,)
        assert table.maximizer_sets[(3, 11)] == (1, 2, 3, 4, 5)

    def test_matches_recursive_descent(self, table):
        for q in range(1, 4):
            for k in range(2, 40):
                maxi = table.maximizer_sets[(q, k)]
                assert maxi == tuple(sorted(oracles.recursion_argmax(q, k)))

    def test_out_of_range(self, table):
        # q = 0, k = 1 and k past kmax have no maximizer set
        for key in [(0, 5), (1, 1), (1, 65), (5, 10)]:
            with pytest.raises(KeyError):
                table.maximizer_sets[key]

    # The tail rule (module docstring of cubeseg.recursion), evaluated
    # without the recursion, against the exact sets of the table.
    def test_tail_rule(self):
        expected = oracles.tail_rule_maximizer_sets(8, 2048)
        assert build_table(8, 2048).maximizer_sets == expected

    # The split by the top bit (module docstring), from the tail rule's
    # sets alone: for k = 2^p + r >= 2^q, M_q(k) is A_q(r) and then
    # 2^(p-1) + y for y in {0} + M_{q-1}(r) past r, with M_0 = M_1, where
    # A_q(r) holds the x in [1, r] that pass row q - 1's tail-sum test on
    # r. A_q(r) is in turn [1, r] for r < 2^(q-1), and S + (r - S) + {r}
    # past it, for r = 2^a + b and S the x < 2^(q-2) of A_{q-1}(b).
    def test_split_by_the_top_bit(self):
        qmax, kmax = 10, 1024
        sets = oracles.tail_rule_maximizer_sets(qmax, kmax)
        h = [oracles.popcount(i) for i in range(kmax)]
        # tails[q][x] = G_q(x) = sum over i < x of max(0, h(i) - q + 1)
        tails = [[0, *accumulate(max(0, w - q + 1) for w in h)] for q in range(qmax)]

        @functools.cache
        def passing(q, r):  # A_q(r), from its definition
            G = tails[q - 1]
            return tuple(x for x in range(1, r + 1) if G[x] + G[r - x] == G[r])

        for q in range(1, qmax + 1):
            for r in range(kmax // 2 + 1):
                if r < 2 ** (q - 1):
                    assert passing(q, r) == tuple(range(1, r + 1)), (q, r)
                else:
                    b = r - 2 ** (r.bit_length() - 1)
                    S = tuple(x for x in passing(q - 1, b) if x < 2 ** (q - 2)) if q > 2 else ()
                    assert passing(q, r) == (*S, *(r - x for x in reversed(S)), r), (q, r)
            for k in range(2**q, kmax + 1):
                p = k.bit_length() - 1
                r, half = k - 2**p, 2 ** (p - 1)
                below = sets[(max(q - 1, 1), r)] if r >= 2 else ()
                shifted = tuple(half + y for y in (0, *below) if half + y > r)
                assert sets[(q, k)] == passing(q, r) + shifted, (q, k)

    # A maximizer of row q - 1 is one of row q: its T(t) is 0 for every
    # t >= q - 1, so for every t >= q (module docstring).
    def test_maximizers_nest(self):
        sets = build_table(8, 1024).maximizer_sets
        for q in range(2, 9):
            for k in range(2, 1025):
                assert set(sets[(q - 1, k)]) <= set(sets[(q, k)])

    # Row q is built from the rows below it alone, so the table to any
    # qmax >= q holds the same row q, values and tuples, as the table to
    # qmax = q, whose top row it is. Checked for every q < qmax <= 8 with
    # qmax <= kmax.bit_length(), kmax <= 300, and at (6, 1024).
    def test_rows_do_not_depend_on_qmax(self):
        for kmax in [*range(2, 301), 1024]:
            top = min(6 if kmax == 1024 else 8, kmax.bit_length())
            tables = [build_table(q, kmax) for q in range(top + 1)]
            for built in tables[2:]:
                for q in range(1, built.qmax):
                    alone = tables[q]
                    assert built.values[q] == alone.values[q]
                    assert [built.maximizer_sets[(q, k)] for k in range(2, kmax + 1)] == [
                        alone.maximizer_sets[(q, k)] for k in range(2, kmax + 1)
                    ], (built.qmax, q, kmax)

    # A tuple equal to the row below's at the same k is that tuple (module
    # docstring), so the counterexample scan computes one excess per
    # distinct tuple of each k; rows past the top share the top row's.
    def test_equal_tuples_are_shared(self):
        sets = build_table(14, 2048).maximizer_sets
        for q in range(2, 15):
            for k in range(2, 2049):
                here, below = sets[(q, k)], sets[(q - 1, k)]
                assert (here is below) == (here == below), (q, k)

    # The tie rule: below k = 2^q no i < k has weight q, so G_q(k) = 0 and
    # every split of k ties, in the top row (q = 10) and in every row below
    def test_every_split_ties_below_two_to_the_q(self):
        sets = build_table(10, 1024).maximizer_sets
        for q in range(1, 11):
            for k in range(2, min(2**q, 1025)):
                assert sets[(q, k)] == tuple(range(1, k // 2 + 1)), (q, k)

    # At k = 2^q only i = 2^q - 1 has weight q, so G_q(2^q) = 1, and only
    # k' = 2^(q-1) has G_{q-1}(k') = 1 with G_q(2^q - k') = 0: the first k
    # past the ties, where r = 0, A_q(0) is empty and only y = 0 shifts
    def test_first_k_past_the_ties(self):
        sets = build_table(10, 1024).maximizer_sets
        for q in range(1, 11):
            assert sets[(q, 2**q)] == (2 ** (q - 1),), q

    # For q = 1 the maximizers are exactly the hypercubic splits, checked
    # without the recursion, up to the split bound: row 1 reads only
    # itself, A_1(r) = {r} and M_0 = M_1 (module docstring).
    def test_row_one_is_hypercubic(self):
        sets = build_table(1, 16384).maximizer_sets
        for k in range(2, 16385):
            assert sets[(1, k)] == tuple(sorted(hypercubic_partitions(k)))


class TestHypercubicPartitions:
    def test_known_values(self):
        assert hypercubic_partitions(2) == {1}
        assert hypercubic_partitions(6) == {2, 3}
        assert hypercubic_partitions(11) == {3, 4, 5}

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            hypercubic_partitions(1)

    @pytest.mark.parametrize("k", list(range(2, 130)))
    def test_matches_direct_counting(self, k):
        assert hypercubic_partitions(k) == oracles.hypercubic_sizes(k)

    def test_large_k(self):
        # every bit below the top one splits 2^40 + 1 into 2^39 and 2^39 + 1
        assert hypercubic_partitions(2**40 + 1) == {1, 2**39}

    @pytest.mark.parametrize("k", [2, 3, 9, 50, 101, 256])
    def test_half_split_always_present(self, k):
        # the least significant bit splits {0..k-1} into halves
        assert k // 2 in hypercubic_partitions(k)

    def test_top_bit_split_present(self):
        for k in range(2, 130):
            r = (k - 1).bit_length() - 1
            if (1 << r) < k <= (1 << (r + 1)) and 1 <= k - (1 << r) <= k // 2:
                assert k - (1 << r) in hypercubic_partitions(k)


class TestOnlyIfCounterexamples:
    def test_q1_has_none(self):
        assert find_onlyif_counterexamples(1, 256) == []

    def test_expected_witness_at_small_scale(self):
        records = find_onlyif_counterexamples(3, 16)
        assert records
        by_key = {(r.q, r.k): r for r in records}
        assert (3, 11) in by_key
        assert {1, 2} <= set(by_key[(3, 11)].non_hypercubic_maximizers)
        # independent confirmation by recursive descent
        assert oracles.recursion_argmax(3, 11) == {1, 2, 3, 4, 5}
        assert oracles.hypercubic_sizes(11) == {3, 4, 5}

    def test_records_ordered_and_consistent(self, table):
        records = find_onlyif_counterexamples(3, 16)
        keys = [(r.q, r.k) for r in records]
        assert keys == sorted(keys)
        small = build_table(3, 16)
        for rec in records:
            # one inclusion still holds: excess never removes hypercubic sizes
            maxi = set(small.maximizer_sets[(rec.q, rec.k)])
            assert hypercubic_partitions(rec.k) <= maxi
            excess = set(rec.non_hypercubic_maximizers)
            assert excess <= maxi
            assert not excess & hypercubic_partitions(rec.k)

    # Every (q, k) with a maximizer that is not hypercubic, from the table's
    # sets and the direct count of each bit position, pair by pair
    def test_records_match_a_scan_of_every_pair(self):
        sets = build_table(8, 300).maximizer_sets
        expected = [
            (q, k, excess)
            for q in range(1, 9)
            for k in range(2, 301)
            if (excess := tuple(sorted(set(sets[(q, k)]) - oracles.hypercubic_sizes(k))))
        ]
        records = find_onlyif_counterexamples(8, 300)
        assert [(r.q, r.k, r.non_hypercubic_maximizers) for r in records] == expected

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            find_onlyif_counterexamples(0, 10)
        with pytest.raises(ValueError):
            find_onlyif_counterexamples(1, 1)


class TestConsistencyWithCube:
    def test_table_counts_initial_segments(self):
        table = build_table(4, 16)
        for n in range(1, 5):
            for k in range(1, 2**n + 1):
                segment = initial_segment(k, n)
                for q in range(n + 1):
                    assert table.value(q, k) == count_subcubes_naive(segment, q)
