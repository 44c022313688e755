"""Tests for vertex sets, subcube kernels, splits, and the text format."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cubeseg.cube import (
    DegenerateSplit,
    VertexFormatError,
    VertexSet,
    count_subcubes_bitparallel,
    count_subcubes_naive,
    initial_segment,
    load_vertex_set,
    parse_vertex_set,
    render_vertex_lines,
    save_vertex_set,
    split,
    three_term_report,
)
from cubeseg.oracle import brute_force_mq
from cubeseg.weights import binom, prefix_hq

import oracles


@st.composite
def vertex_sets(draw, max_dim=6, min_size=0):
    n = draw(st.integers(1, max_dim))
    members = draw(
        st.lists(st.integers(0, 2**n - 1), unique=True, min_size=min_size)
    )
    return VertexSet(n, members)


class TestVertexSet:
    def test_membership_and_len(self):
        S = VertexSet(3, [5, 0, 2])
        assert len(S) == 3
        assert 5 in S and 0 in S and 2 in S
        assert 1 not in S and 7 not in S
        assert S.members() == (0, 2, 5)

    def test_duplicates_collapse(self):
        assert VertexSet(3, [1, 1, 1]) == VertexSet(3, [1])

    def test_equality_includes_dim(self):
        assert VertexSet(2, [1]) != VertexSet(3, [1])

    def test_out_of_range_member(self):
        with pytest.raises(ValueError):
            VertexSet(2, [4])
        with pytest.raises(ValueError):
            VertexSet(2, [-1])

    def test_dim_bounds(self):
        with pytest.raises(ValueError):
            VertexSet(0, [])
        with pytest.raises(ValueError):
            VertexSet(21, [])

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: VertexSet(n, [0]),
            lambda n: VertexSet.from_bits(n, 1),
            lambda n: initial_segment(1, n),
            lambda n: parse_vertex_set(["0"], n),
            lambda n: brute_force_mq(n, 2**n, 0),  # the full cube: one set
        ],
        ids=["VertexSet", "from_bits", "initial_segment", "parse_vertex_set",
             "brute_force_mq"],
    )
    def test_dimension_bound_is_fixed_at_20(self, build):
        with pytest.raises(ValueError, match=r"dim must be in \[1, 20\], got 21"):
            build(21)
        build(20)  # the largest accepted dimension

    def test_from_bits_round_trip(self):
        S = VertexSet(4, [0, 7, 9])
        assert VertexSet.from_bits(4, S.bits) == S

    def test_shuffled_members_match_summed_indicator(self):
        n = 16
        rng = random.Random(16)
        members = rng.sample(range(2**n), 20000)
        members += members[:500]  # duplicates collapse
        rng.shuffle(members)
        expected = sum(1 << v for v in set(members))
        assert VertexSet(n, members) == VertexSet.from_bits(n, expected)

    def test_member_errors_in_iteration_order(self):
        with pytest.raises(TypeError, match="'x'"):
            VertexSet(2, [1, "x", 9])
        with pytest.raises(ValueError, match="vertex 9 outside"):
            VertexSet(2, [1, 9, "x"])
        with pytest.raises(TypeError):
            VertexSet(2, [True])
        with pytest.raises(ValueError, match="vertex -1 outside"):
            VertexSet(2, [3, -1])

    def test_iteration_at_full_dimension(self):
        n = 20
        rng = random.Random(n)
        members = sorted(rng.sample(range(2**n), 3000) + [0, 2**n - 1])
        bits = sum(1 << v for v in members)
        S = VertexSet.from_bits(n, bits)
        assert list(S) == members
        assert S.members() == tuple(members)
        assert list(VertexSet.from_bits(n, 0)) == []

    def test_repr_lists_at_most_twelve_members(self):
        assert repr(VertexSet(3, [5, 0, 2])) == "VertexSet(dim=3, {0,2,5})"
        assert repr(VertexSet(3, [])) == "VertexSet(dim=3, {})"
        assert repr(initial_segment(12, 4)) == (
            "VertexSet(dim=4, {0,1,2,3,4,5,6,7,8,9,10,11})"
        )
        assert repr(initial_segment(2**20, 20)) == (
            "VertexSet(dim=20, {0,1,2,3,4,5,6,7,8,9,10,11,...})"
        )


class TestInitialSegment:
    def test_single_vertex(self):
        assert initial_segment(1, 3).members() == (0,)

    def test_full_cube(self):
        assert initial_segment(8, 3).members() == tuple(range(8))

    def test_five_of_eight(self):
        assert initial_segment(5, 3).members() == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("k", [0, 9, -1])
    def test_out_of_range(self, k):
        with pytest.raises(ValueError):
            initial_segment(k, 3)


class TestSplit:
    def test_even_odd(self):
        s0, s1 = split(VertexSet(2, [0, 1, 2, 3]), 0)
        assert s0.members() == (0, 2)
        assert s1.members() == (1, 3)

    def test_initial_segment_top_bit(self):
        s0, s1 = split(initial_segment(5, 3), 2)
        assert s0.members() == (0, 1, 2, 3)
        assert s1.members() == (4,)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_zero_vertex_always_on_low_side(self, r):
        s0, s1 = split(VertexSet(3, [0]), r)
        assert s0.members() == (0,)
        assert len(s1) == 0

    def test_bad_coordinate(self):
        with pytest.raises(ValueError):
            split(VertexSet(2, [0]), 2)

    @given(vertex_sets(), st.data())
    def test_partition_properties(self, S, data):
        r = data.draw(st.integers(0, S.dim - 1))
        s0, s1 = split(S, r)
        assert len(s0) + len(s1) == len(S)
        assert s0.bits & s1.bits == 0
        assert s0.bits | s1.bits == S.bits
        assert all((v >> r) & 1 == 0 for v in s0)
        assert all((v >> r) & 1 == 1 for v in s1)


class TestCountingKernels:
    @given(vertex_sets())
    def test_q_zero_counts_members(self, S):
        assert count_subcubes_naive(S, 0) == len(S)
        assert count_subcubes_bitparallel(S, 0) == len(S)

    def test_too_small_sets_contain_nothing(self):
        assert count_subcubes_naive(VertexSet(3, [1, 2, 4]), 2) == 0
        assert count_subcubes_naive(VertexSet(4, [0]), 1) == 0

    def test_square_edges(self):
        assert oracles.edge_count(range(4)) == 4
        assert count_subcubes_naive(initial_segment(4, 2), 1) == 4

    def test_cube_faces(self):
        assert oracles.subcube_count(range(8), 3, 2) == 6
        assert count_subcubes_naive(initial_segment(8, 3), 2) == 6

    def test_six_vertex_edges_both_kernels(self):
        S = initial_segment(6, 3)
        assert oracles.edge_count(range(6)) == 7
        assert count_subcubes_naive(S, 1) == 7
        assert count_subcubes_bitparallel(S, 1) == 7

    @pytest.mark.parametrize("n", range(1, 15))
    def test_full_cube_closed_form(self, n):
        full = VertexSet.from_bits(n, (1 << (1 << n)) - 1)
        for q in range(n + 1):
            expected = binom(n, q) * 2 ** (n - q)
            assert count_subcubes_bitparallel(full, q) == expected
            if n <= 6:
                assert count_subcubes_naive(full, q) == expected

    @pytest.mark.parametrize("n", [12, 14, 16])
    def test_large_initial_segments_match_weight_histogram(self, n):
        # m_q of {0..k-1} is the sum over i < k of C(popcount(i), q).
        rng = random.Random(n)
        for k in (rng.randint(1, 2**n) for _ in range(3)):
            weights = [0] * (n + 1)
            for i in range(k):
                weights[oracles.popcount(i)] += 1
            S = initial_segment(k, n)
            for q in range(n + 1):
                expected = sum(c * binom(w, q) for w, c in enumerate(weights))
                assert count_subcubes_bitparallel(S, q) == expected, (k, q)

    @pytest.mark.parametrize("seed", range(4))
    def test_products_match_factor_counts(self, seed):
        # A q-subcube of A x B splits into an a-subcube of A and a
        # (q - a)-subcube of B, so m_q(A x B) = sum_a m_a(A) m_{q-a}(B).
        rng = random.Random(seed)
        half = 8
        A, B = (
            VertexSet(half, [v for v in range(2**half) if rng.random() < density])
            for density in (rng.uniform(0.5, 0.95), rng.uniform(0.5, 0.95))
        )
        product = 0
        for y in B:
            product |= A.bits << (y << half)
        S = VertexSet.from_bits(2 * half, product)
        mA = [count_subcubes_naive(A, a) for a in range(half + 1)]
        mB = [count_subcubes_naive(B, b) for b in range(half + 1)]
        for q in range(2 * half + 1):
            expected = sum(
                mA[a] * mB[q - a] for a in range(max(0, q - half), min(q, half) + 1)
            )
            assert count_subcubes_bitparallel(S, q) == expected, q

    def test_invalid_q(self):
        S = VertexSet(3, [0])
        with pytest.raises(ValueError):
            count_subcubes_naive(S, 4)
        with pytest.raises(ValueError):
            count_subcubes_bitparallel(S, -1)

    @settings(max_examples=60, deadline=None)
    @given(vertex_sets(max_dim=6))
    def test_kernels_and_reference_agree(self, S):
        for q in range(S.dim + 1):
            naive = count_subcubes_naive(S, q)
            fast = count_subcubes_bitparallel(S, q)
            ref = oracles.subcube_count(S.members(), S.dim, q)
            assert naive == fast == ref

    @settings(max_examples=60, deadline=None)
    @given(vertex_sets(max_dim=6), st.data())
    def test_monotone_under_inclusion(self, S, data):
        subset_members = data.draw(st.sets(st.sampled_from(S.members() or (0,))))
        sub = VertexSet(S.dim, [v for v in subset_members if v in S])
        for q in range(S.dim + 1):
            assert count_subcubes_bitparallel(sub, q) <= count_subcubes_bitparallel(S, q)

    @settings(max_examples=60, deadline=None)
    @given(vertex_sets(max_dim=6), st.data())
    def test_automorphism_invariance(self, S, data):
        n = S.dim
        perm = data.draw(st.permutations(list(range(n))))
        mask = data.draw(st.integers(0, 2**n - 1))
        moved = VertexSet(
            n, [oracles.permute_coordinates(v, perm, n) ^ mask for v in S]
        )
        for q in range(n + 1):
            assert count_subcubes_bitparallel(moved, q) == count_subcubes_bitparallel(S, q)

    @settings(max_examples=60, deadline=None)
    @given(vertex_sets(max_dim=6, min_size=1))
    def test_prefix_sum_upper_bound(self, S):
        for q in range(S.dim + 1):
            assert count_subcubes_bitparallel(S, q) <= prefix_hq(len(S), q)


class TestThreeTermReport:
    def test_full_square_is_exact(self):
        rep = three_term_report(VertexSet(2, [0, 1, 2, 3]), 1, 0)
        assert rep.b == 1  # tie between sides goes to the 1-side
        assert (rep.mq_total, rep.mq_heavy, rep.mq_light, rep.mq1_light) == (4, 1, 1, 2)
        assert rep.bound == 4
        assert rep.exact

    def test_antipodal_pair_is_not_exact(self):
        rep = three_term_report(VertexSet(2, [0, 3]), 1, 0)
        assert rep.mq_total == 0
        assert (rep.mq_heavy, rep.mq_light, rep.mq1_light) == (0, 0, 1)
        assert not rep.exact

    def test_single_edge_is_exact(self):
        rep = three_term_report(VertexSet(2, [0, 1]), 1, 0)
        assert rep.mq_total == 1
        assert rep.bound == 1
        assert rep.exact

    def test_light_side_can_be_zero_side(self):
        rep = three_term_report(VertexSet(2, [0, 1, 3]), 1, 0)
        assert rep.b == 0
        assert rep.mq_heavy == 1  # edge 1-3 on the 1-side
        assert rep.exact

    def test_degenerate_split(self):
        with pytest.raises(DegenerateSplit):
            three_term_report(VertexSet(2, [0, 2]), 1, 0)

    def test_invalid_arguments(self):
        S = VertexSet(2, [0, 1])
        with pytest.raises(ValueError):
            three_term_report(S, 0, 0)
        with pytest.raises(ValueError):
            three_term_report(S, 1, 5)

    def test_bound_holds_on_random_sets(self):
        rng = random.Random(7)
        checked = 0
        while checked < 100:
            n = rng.randint(2, 6)
            members = [v for v in range(2**n) if rng.random() < 0.5]
            r = rng.randrange(n)
            if not members:
                continue
            S = VertexSet(n, members)
            s0, s1 = split(S, r)
            if not len(s0) or not len(s1):
                continue
            q = rng.randint(1, n)
            rep = three_term_report(S, q, r)
            assert rep.mq_total <= rep.bound
            assert rep.bound == rep.mq_heavy + rep.mq_light + rep.mq1_light
            checked += 1


class TestTextFormat:
    def test_decimal_parse(self):
        lines = ["# a square", "", "0", "1", "2", "3"]
        assert parse_vertex_set(lines, 2) == VertexSet(2, [0, 1, 2, 3])

    def test_binary_parse_msb_first(self):
        S = parse_vertex_set(["100", "011"], 3, "binary")
        assert S.members() == (3, 4)

    def test_duplicate_rejected(self):
        with pytest.raises(VertexFormatError, match="duplicate"):
            parse_vertex_set(["1", "1"], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexFormatError, match="outside"):
            parse_vertex_set(["4"], 2)

    def test_overlong_decimal_rejected_by_length(self):
        # Past int()'s 4300-digit limit: still an out-of-range input error
        with pytest.raises(
            VertexFormatError,
            match=r"^line 2: vertex 9{5000} outside \[0, 15\] for dim 4$",
        ):
            parse_vertex_set(["1", "9" * 5000], 4)
        with pytest.raises(VertexFormatError, match=r"^line 1: vertex 16 outside"):
            parse_vertex_set(["016"], 4)

    def test_leading_zeros_do_not_count(self):
        assert parse_vertex_set(["0" * 5000 + "15", "0" * 5000, "007"], 4) == (
            VertexSet(4, [0, 7, 15])
        )

    def test_first_bad_line_wins(self):
        lines = ["0", "1", "1", "2", "99", "x"]
        with pytest.raises(VertexFormatError, match=r"^line 3: duplicate vertex 1$"):
            parse_vertex_set(lines, 3)
        lines = ["0", "1", "99", "2", "1", "1"]
        with pytest.raises(VertexFormatError, match=r"^line 3: vertex 99 outside"):
            parse_vertex_set(lines, 3)
        binary = ["000", "001", "001", "011", "1000"]
        with pytest.raises(VertexFormatError, match=r"^line 3: duplicate vertex 1$"):
            parse_vertex_set(binary, 3, "binary")

    def test_malformed_decimal(self):
        with pytest.raises(VertexFormatError):
            parse_vertex_set(["2.5"], 3)
        with pytest.raises(VertexFormatError):
            parse_vertex_set(["-1"], 3)
        # str.isdigit() accepts these; int() rejects the first and reads
        # the second (Arabic-Indic digits) as 12
        with pytest.raises(VertexFormatError):
            parse_vertex_set(["\u00b2"], 3)
        with pytest.raises(VertexFormatError):
            parse_vertex_set(["\u0661\u0662"], 4)

    def test_wrong_length_binary(self):
        with pytest.raises(VertexFormatError):
            parse_vertex_set(["01", "001"], 2, "binary")
        with pytest.raises(VertexFormatError):
            parse_vertex_set(["0x"], 2, "binary")
        # right length, not all 0/1; int(line, 2) accepts the first and
        # the last (Arabic-Indic digits, read as 3)
        for line in ("0_1", "1 0", "٠١١"):
            with pytest.raises(VertexFormatError, match="3-character binary"):
                parse_vertex_set([line], 3, "binary")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_vertex_set(["0"], 2, "octal")

    def test_large_segment_files_match_reference_text(self, tmp_path):
        n, k = 18, 157286
        S = initial_segment(k, n)
        expected = {
            "decimal": "".join(f"{i}\n" for i in range(k)),
            "binary": "".join(format(i, "018b") + "\n" for i in range(k)),
        }
        for fmt, text in expected.items():
            path = tmp_path / f"{fmt}.txt"
            save_vertex_set(S, path, fmt)
            assert path.read_bytes() == text.encode("ascii"), fmt
            assert load_vertex_set(path, n, fmt) == S, fmt

    @settings(max_examples=40)
    @given(vertex_sets(max_dim=6))
    def test_round_trip_both_formats(self, S):
        for fmt in ("decimal", "binary"):
            lines = render_vertex_lines(S, fmt)
            assert parse_vertex_set(lines, S.dim, fmt) == S
