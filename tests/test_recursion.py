"""Tests for the max-recursion table, maximizers, and hypercubic partitions."""

import tracemalloc

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

    # build_table takes the top row's maximizers from the guard bits of its
    # packed tail-sum test, in fields whose width is fixed from that row's
    # own G_last(kmax) = sum over i < kmax of max(0, h(i) - last + 1), and
    # keeps each lower row's from the row above. G_2(96) = 209,
    # G_3(128) = 201 and G_1(76) = 224 lie in [2^7, 2^8), so these tables
    # need 16-bit fields: in 8-bit ones a lead or a loss reaches the guard
    # bit. (4, 48) and (6, 86) pack their top rows in 8-bit fields
    # (G = 13 and 1), though their G_1 = 128 and 259 would need 16 bits;
    # (3, 1100) and (3, 2560) pack G_3 = 3233 and 8974 in 16-bit fields,
    # and (8, 600) G_8 = 11 in 8-bit ones. (6, 98) holds the small k of
    # every row; (3, 1100) holds k = 2^m - 1, 2^m, 2^m + 1 for m = 9 and
    # m = 10; every split of the rows q >= 9 of (12, 300) ties, and
    # (3, 1) .. (3, 3) score at most one split per k.
    # Row b = kmax.bit_length() is the first that is 0 and ties at every
    # split: row 9 of (12, 300), 6 of (16, 40) and 7 of (30, 100). It is
    # the packed row, and every row after it is copied.
    @pytest.mark.parametrize(
        "qmax,kmax",
        [
            (6, 98),
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

    # Past row 10 every F_q(k) up to k = 1024 is 0, so every split ties
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
    # (1, 16384) scores exactly _MAX_SPLITS splits and (2^20 - 1, 1), with
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
    # ~2 s; the all-tie rows of (64, 2048) would list ~55 million, and the
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
        expected = oracles.tail_rule_maximizer_sets(8, 1024)
        assert build_table(8, 1024).maximizer_sets == expected

    # A maximizer of row q - 1 is one of row q: its T(t) is 0 for every
    # t >= q - 1, so for every t >= q (module docstring).
    def test_maximizers_nest(self):
        sets = build_table(8, 1024).maximizer_sets
        for q in range(2, 9):
            for k in range(2, 1025):
                assert set(sets[(q - 1, k)]) <= set(sets[(q, k)])

    # Every row below the top keeps the maximizers of the row above that
    # pass its own test, three lookups per split; as the top row of the
    # table to qmax = q, the same row comes from the packed test. Checked
    # for every q < qmax <= 8 with qmax <= kmax.bit_length(), kmax <= 300,
    # and at (6, 1024).
    def test_filtered_rows_match_packed_rows(self):
        for kmax in [*range(2, 301), 1024]:
            top = min(6 if kmax == 1024 else 8, kmax.bit_length())
            tables = [build_table(q, kmax) for q in range(top + 1)]
            for built in tables[2:]:
                for q in range(1, built.qmax):
                    packed = tables[q]
                    assert built.values[q] == packed.values[q]
                    assert [built.maximizer_sets[(q, k)] for k in range(2, kmax + 1)] == [
                        packed.maximizer_sets[(q, k)] for k in range(2, kmax + 1)
                    ], (built.qmax, q, kmax)

    # For q = 1 the maximizers are exactly the hypercubic splits, checked
    # without the recursion. Row 1 is kept from row 2, the packed row, and
    # G_2(6361) = 32770 is past 2^15, so its fields are 24 bits wide, one
    # byte more than at kmax = 6360.
    def test_row_one_is_hypercubic(self):
        sets = build_table(2, 6361).maximizer_sets
        for k in range(2, 6362):
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
