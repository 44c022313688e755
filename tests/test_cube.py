"""Tests for vertex sets, subcube kernels, splits, and the text format."""

import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cubeseg.cube import (
    _CHUNK,
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
from cubeseg.weights import prefix_hq

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
        assert tuple(S) == (0, 2, 5)

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
        assert list(VertexSet.from_bits(n, 0)) == []

    @pytest.mark.parametrize("n", [1, 7, 20])
    def test_iteration_lists_sorted_members(self, n):
        top = 2**n - 1
        assert list(VertexSet(n, [])) == []
        assert list(VertexSet.from_bits(n, (1 << 2**n) - 1)) == list(range(2**n))
        assert list(VertexSet(n, [top])) == [top]
        rng = random.Random(n)
        for _ in range(5):
            members = rng.sample(range(2**n), rng.randint(0, min(2**n, 5000)))
            assert list(VertexSet(n, members)) == sorted(members)

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
        assert tuple(initial_segment(1, 3)) == (0,)

    def test_full_cube(self):
        assert tuple(initial_segment(8, 3)) == tuple(range(8))

    def test_five_of_eight(self):
        assert tuple(initial_segment(5, 3)) == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("k", [0, 9, -1])
    def test_out_of_range(self, k):
        with pytest.raises(ValueError):
            initial_segment(k, 3)


class TestSplit:
    def test_even_odd(self):
        s0, s1 = split(VertexSet(2, [0, 1, 2, 3]), 0)
        assert tuple(s0) == (0, 2)
        assert tuple(s1) == (1, 3)

    def test_initial_segment_top_bit(self):
        s0, s1 = split(initial_segment(5, 3), 2)
        assert tuple(s0) == (0, 1, 2, 3)
        assert tuple(s1) == (4,)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_zero_vertex_always_on_low_side(self, r):
        s0, s1 = split(VertexSet(3, [0]), r)
        assert tuple(s0) == (0,)
        assert len(s1) == 0

    def test_bad_coordinate(self):
        with pytest.raises(ValueError):
            split(VertexSet(2, [0]), 2)

    @pytest.mark.parametrize("r", [0, 10, 19])
    def test_halves_at_full_dimension(self, r):
        n = 20
        members = random.Random(n).sample(range(2**n), 5000)
        s0, s1 = split(VertexSet(n, members), r)
        assert list(s0) == sorted(v for v in members if v >> r & 1 == 0)
        assert list(s1) == sorted(v for v in members if v >> r & 1 == 1)

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

    @pytest.mark.parametrize("n", [*range(1, 15), 20])
    def test_full_cube_closed_form(self, n):
        full = VertexSet.from_bits(n, (1 << (1 << n)) - 1)
        for q in range(n + 1):
            expected = comb(n, q) * 2 ** (n - q)
            assert count_subcubes_bitparallel(full, q) == expected
            if n <= 6:
                assert count_subcubes_naive(full, q) == expected

    @pytest.mark.parametrize("n", [12, 14, 16, 18, 20])
    def test_large_initial_segments_match_weight_histogram(self, n):
        # m_q of {0..k-1} is the sum over i < k of C(popcount(i), q).
        rng = random.Random(n)
        for k in (rng.randint(1, 2**n) for _ in range(3)):
            weights = [0] * (n + 1)
            for i in range(k):
                weights[oracles.popcount(i)] += 1
            S = initial_segment(k, n)
            for q in range(n + 1):
                expected = sum(c * comb(w, q) for w, c in enumerate(weights))
                assert count_subcubes_bitparallel(S, q) == expected, (k, q)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_peeled_halves_match_naive(self, n):
        # Sets whose top halves are empty or full for one or more splits,
        # so the bit-parallel kernel peels before (or instead of) folding.
        rng = random.Random(100 + n)
        size, half = 1 << n, 1 << (n - 1)
        for _ in range(3):
            k = rng.randint(1, size)
            free = [r for r in range(n) if rng.random() < 0.5]
            subcube = [rng.getrandbits(n) & ~sum(1 << r for r in free)]
            for r in free:
                subcube += [v | 1 << r for v in subcube]
            cases = {
                "segment, one vertex flipped": ((1 << k) - 1) ^ (1 << rng.randrange(size)),
                "full top half": ((1 << half) - 1) << half | rng.getrandbits(half),
                "full bottom half": (1 << half) - 1 | rng.getrandbits(half) << half,
                "final segment": (1 << size) - (1 << (k - 1)),
                "subcube": VertexSet(n, subcube).bits,
                "upper half only": rng.getrandbits(half) << half,
            }
            for name, bits in cases.items():
                S = VertexSet.from_bits(n, bits)
                for q in range(n + 1):
                    fast = count_subcubes_bitparallel(S, q)
                    assert fast == count_subcubes_naive(S, q), (name, bits, q)
                    if n <= 6:
                        assert fast == oracles.subcube_count(S, n, q), (name, bits, q)

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

    @pytest.mark.parametrize("n", range(4, 17))
    def test_random_down_sets_match_weight_sum(self, n):
        # In a down-set D (closed under clearing bits) every q coordinates
        # of a member v's ones span a q-subcube of D topped by v, so
        # m_q(D) = sum over v in D of C(popcount(v), q).
        rng = random.Random(n)
        for _ in range(3):
            members = set()
            for _ in range(rng.randint(1, 4)):
                ones = rng.sample(range(n), rng.randint(0, min(n, 12)))
                g = sum(1 << r for r in ones)
                sub = g
                while True:  # every submask of g
                    members.add(sub)
                    if sub == 0:
                        break
                    sub = (sub - 1) & g
            S = VertexSet(n, members)
            for q in range(n + 1):
                expected = sum(comb(oracles.popcount(v), q) for v in members)
                assert count_subcubes_bitparallel(S, q) == expected, q
                if n <= 8:
                    assert count_subcubes_naive(S, q) == expected, q

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
            ref = oracles.subcube_count(S, S.dim, q)
            assert naive == fast == ref

    @settings(max_examples=60, deadline=None)
    @given(vertex_sets(max_dim=6), st.data())
    def test_monotone_under_inclusion(self, S, data):
        subset_members = data.draw(st.sets(st.sampled_from(tuple(S) or (0,))))
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


class TestCompression:
    """The i-compression [BL1990] never lowers m_q.

    A q-subcube that frees coordinate i is a (q-1)-subcube of A ∩ B, which
    the compression keeps; any other lies on one side, and
    [c ⊆ A] + [c ⊆ B] <= [c ⊆ A ∪ B] + [c ⊆ A ∩ B].
    """

    @staticmethod
    def counts(bits, n):
        S = VertexSet.from_bits(n, bits)
        return [count_subcubes_naive(S, q) for q in range(n + 1)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_set_and_coordinate(self, n):
        for bits in range(1 << (1 << n)):
            before = self.counts(bits, n)
            for i in range(n):
                after = oracles.compress(bits, n, i)
                assert after.bit_count() == bits.bit_count(), (bits, i)
                assert all(b <= a for b, a in zip(before, self.counts(after, n))), (bits, i)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_compressing_to_a_fixed_point_ends_at_a_down_set(self, n):
        rng = random.Random(n)
        for _ in range(8):
            bits = rng.getrandbits(1 << n) & rng.getrandbits(1 << n)
            down = bits
            while (moved := [oracles.compress(down, n, i) for i in range(n)]) != [down] * n:
                down = next(c for c in moved if c != down)
            members = [v for v in range(1 << n) if down >> v & 1]
            assert all(down >> (v & ~(1 << r)) & 1 for v in members for r in range(n))
            assert down.bit_count() == bits.bit_count()
            assert all(b <= a for b, a in zip(self.counts(bits, n), self.counts(down, n)))


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
        assert tuple(S) == (3, 4)

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

    def test_render_matches_per_member_reference(self):
        n = 20
        rng = random.Random(14)
        for size in (0, 1, 4000, 70000):
            members = sorted(rng.sample(range(2**n), size))
            S = VertexSet(n, members)
            assert render_vertex_lines(S) == [str(v) for v in members]
            assert render_vertex_lines(S, "binary") == [
                format(v, "020b") for v in members
            ]

    # Lines are parsed _CHUNK at a time: every error and every skipped line
    # must be placed the same way past the first chunk.
    def test_bad_lines_past_the_first_chunk(self):
        lines = [str(v) for v in range(_CHUNK + 5)]
        lines[_CHUNK + 2] = "x"
        with pytest.raises(
            VertexFormatError,
            match=rf"^line {_CHUNK + 3}: 'x' is not a non-negative decimal integer$",
        ):
            parse_vertex_set(lines, 12)
        lines[_CHUNK + 2] = "4096"
        with pytest.raises(
            VertexFormatError,
            match=rf"^line {_CHUNK + 3}: vertex 4096 outside \[0, 4095\] for dim 12$",
        ):
            parse_vertex_set(lines, 12)
        binary = [format(v, "012b") for v in range(2 * _CHUNK + 1)]
        binary[2 * _CHUNK] = "1" * 13
        with pytest.raises(
            VertexFormatError,
            match=rf"^line {2 * _CHUNK + 1}: '1{{13}}' is not a 12-character binary string$",
        ):
            parse_vertex_set(binary, 12, "binary")

    def test_duplicate_of_an_earlier_chunk(self):
        lines = [str(v) for v in range(_CHUNK + 10)] + ["3"]
        with pytest.raises(
            VertexFormatError, match=rf"^line {_CHUNK + 11}: duplicate vertex 3$"
        ):
            parse_vertex_set(lines, 12)
        binary = [format(v, "012b") for v in range(2 * _CHUNK + 1)] + ["000000000011"]
        with pytest.raises(
            VertexFormatError, match=rf"^line {2 * _CHUNK + 2}: duplicate vertex 3$"
        ):
            parse_vertex_set(binary, 12, "binary")

    def test_long_leading_zero_line_in_a_later_chunk(self):
        lines = [str(v) for v in range(1, _CHUNK + 3)] + ["0" * 30 + "4000", "0" * 5000]
        expected = {0, 4000} | set(range(1, _CHUNK + 3))
        assert parse_vertex_set(lines, 12) == VertexSet(12, expected)

    def test_skipped_lines_shift_numbers_across_chunks(self):
        # a comment, then a blank line after every 7th vertex
        lines = ["# header"]
        for v in range(3 * _CHUNK):
            lines.append(str(v))
            if v % 7 == 6:
                lines.append("   ")
        assert parse_vertex_set(lines, 12) == VertexSet(12, range(3 * _CHUNK))
        bad = len(lines) - 5
        lines[bad] = "# not a vertex"
        lines.insert(bad, "2.5")
        with pytest.raises(
            VertexFormatError,
            match=rf"^line {bad + 1}: '2.5' is not a non-negative decimal integer$",
        ):
            parse_vertex_set(lines, 12)

    def test_crlf_and_missing_final_newline(self, tmp_path):
        members = range(2 * _CHUNK + 7)
        expected = VertexSet(12, members)
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"".join(b"%d\r\n" % v for v in members))
        assert load_vertex_set(path, 12) == expected
        path.write_bytes(b"\n".join(b"%d" % v for v in members))
        assert load_vertex_set(path, 12) == expected
        path.write_bytes(b"\n".join(format(v, "012b").encode() for v in members))
        assert load_vertex_set(path, 12, "binary") == expected

    def test_bad_utf8_after_the_first_chunk(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(
            b"".join(b"%d\n" % v for v in range(3 * _CHUNK)) + b"# caf\xe9\n"
        )
        with pytest.raises(VertexFormatError, match="not valid UTF-8"):
            load_vertex_set(path, 12)

    @settings(max_examples=40)
    @given(vertex_sets(max_dim=6))
    def test_round_trip_both_formats(self, S):
        for fmt in ("decimal", "binary"):
            lines = render_vertex_lines(S, fmt)
            assert parse_vertex_set(lines, S.dim, fmt) == S
