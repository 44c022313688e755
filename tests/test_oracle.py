"""Tests for the exhaustive k-subset oracle."""

import random
import signal
import time
import tracemalloc
from contextlib import contextmanager
from itertools import combinations
from math import comb
from sys import getsizeof

import pytest

from cubeseg.cube import VertexSet, initial_segment
from cubeseg.oracle import (
    _TABLE_BYTES,
    BudgetExceeded,
    OracleResult,
    _MaskTable,
    _leads,
    _scan,
    _walk,
    brute_force_mq,
    is_optimal_set,
)
from cubeseg.weights import prefix_hq

import oracles


@contextmanager
def _deadline(seconds):
    """Fail the test once the block has run for ``seconds`` of wall time."""

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        expired = True
    else:
        expired = False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # outside the handler: the interrupted frame's traceback can lack a
    # line number, which pytest's report cannot format
    if expired:
        pytest.fail(f"not done in {seconds} s", pytrace=False)


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
        # From q = 1 on the downward walk scores each of the 2^n sets with
        # one removal; at q = 0 they tie, and none is walked.
        for q in range(n + 1):
            res = brute_force_mq(n, 2**n - 1, q)
            assert res.max_count == comb(n, q) * (2 ** (n - q) - 1)
            assert res.total_subsets_scanned == 2**n

    def test_all_but_one_of_the_20_cube(self):
        # Nothing is removed before the one removal, so each of the 2^20
        # sets scores C(20, 10) without a mask of 2^20 bits being built.
        res = brute_force_mq(20, 2**20 - 1, 10, argmax_cap=1)
        assert res.max_count == comb(20, 10) * (2**10 - 1)
        assert res.total_subsets_scanned == 2**20
        assert res.argmax_examples == (initial_segment(2**20 - 1, 20),)

    def test_singletons_of_the_20_cube_at_q_zero(self):
        # Every vertex is its own 0-subcube, so each of the 2^20 singletons
        # holds 1: a uniform size, answered with the first four singletons
        # and no walk or mask table.
        res = brute_force_mq(20, 1, 0)
        assert res == OracleResult(
            n=20,
            k=1,
            q=0,
            max_count=1,
            argmax_examples=tuple(VertexSet(20, [v]) for v in range(4)),
            total_subsets_scanned=2**20,
            matches_formula=True,
        )

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
        + [(4, k) for k in (2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15)]
        + [(5, 30), (5, 31), (6, 62), (6, 63)],
    )
    def test_matches_independent_reference(self, n, k):
        # Whole argmax list, in order, against itertools and an explicit
        # subcube generator. Sizes past the split ceiling's floor walk the
        # removed set from 2k > 2^n on: n = 3 from k = 5, n = 4 from
        # k = 12, n = 5 at k = 30 and 31 and n = 6 at k = 63. The floor
        # takes n = 4 at k = 5-11, every one of them here, and n = 6 at
        # k = 62, C(64, 62) = 2016 sets, upward at its edge.
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

    @pytest.mark.parametrize("q", [0, 4, 5])
    def test_half_of_the_5_cube_is_cut_deep(self, q):
        # 601,080,390 sets, ~5 minutes if each were scored, decided in a
        # fraction of a second. At q = 0 and q = 5 every set ties, at 16
        # vertices and at no 5-subcube, and none is walked. At q = 4 the
        # first leaf is the initial segment, whose count is the maximum,
        # and the universe's count, which falls to that maximum, 1, and
        # the split ceiling cut nearly every later subtree.
        with _deadline(5):
            res = brute_force_mq(5, 16, q, argmax_cap=1, budget=10**9)
        assert res.total_subsets_scanned == comb(32, 16) == 601080390
        assert res.max_count == prefix_hq(16, q)
        assert res.argmax_examples == (initial_segment(16, 5),)

    def test_half_of_the_5_cube_is_cut_deep_at_cap_4(self):
        # The ten 4-subcubes tie at the maximum, 1, so at cap 4 the bar
        # stays 1 until the fourth of them is listed, and only a ceiling of
        # 0 cuts. The split ceiling stays at 1 wherever a 3-subcube can
        # cross the split, so the cut rests on the universe's count, which
        # falls to 0 once no 4-subcube fits (over 20 s with a universe that
        # barely shrinks).
        with _deadline(5):
            res = brute_force_mq(5, 16, 4, argmax_cap=4, budget=10**9)
        assert res.total_subsets_scanned == comb(32, 16)
        assert res.max_count == 1
        # the subcubes with coordinate 4, 3, 2 and then 1 fixed at 0
        assert [tuple(S) for S in res.argmax_examples] == [
            tuple(v for v in range(32) if not v >> c & 1) for c in (4, 3, 2, 1)
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

    def test_scan_bound_holds_whatever_the_budget(self):
        # C(2048, 1024) ~ 10^614 fits this budget, but no scan past 2^64
        # subsets starts: the upward walk would recurse 1023 calls deep.
        with pytest.raises(BudgetExceeded) as exc:
            brute_force_mq(11, 1024, 1, budget=10**700)
        assert exc.value.required == 2**1024 < comb(2048, 1024)
        assert exc.value.budget == 2**64
        assert str(exc.value) == f"enumeration needs more than 2^1024 subsets, budget allows {2**64}"
        # a budget past the bound still runs every scan within it
        assert brute_force_mq(4, 8, 1, budget=2**70).total_subsets_scanned == 12870

    def test_count_past_the_digit_limit_is_refused(self):
        # 2^32768, the bound that stands for C(2^16, 2^15), has ~9,900
        # decimal digits, more than str() prints
        with pytest.raises(BudgetExceeded, match=r"needs more than 2\^32768 subsets"):
            brute_force_mq(16, 2**15, 1)

    def test_refused_without_the_binomial(self):
        # C(2^20, 2^19) takes ~12 s to compute; since C(N, m) > 2^m for
        # m = min(k, N - k) >= 2, an m past 64 is refused at 2^m without it.
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=r"needs more than 2\^524288 subsets") as exc:
            brute_force_mq(20, 2**19, 1)
        assert time.perf_counter() - start < 0.1
        assert exc.value.required == 2**524288
        # m is 65 at k = 65 and k = 191 of the 8-cube, and 64 at k = 192,
        # whose binomial is exact
        for k in (65, 191):
            with pytest.raises(BudgetExceeded) as exc:
                brute_force_mq(8, k, 1, budget=10**100)
            assert exc.value.required == 2**65 < comb(256, 65)
        with pytest.raises(BudgetExceeded) as exc:
            brute_force_mq(8, 192, 1)
        assert exc.value.required == comb(256, 64)

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
        + [(4, k) for k in (*range(4, 9), *range(11, 17))]
        + [(5, 30), (5, 31)],
    )
    def test_capped_argmax_is_prefix_of_uncapped(self, n, k):
        # A cap keeps the first entries of the full list, in scan order.
        # n <= 3 covers both directions; n = 4 at k >= 12 and n = 5 at
        # k >= 30 walk downward, where ties often outnumber the cap. Ties
        # are cut only once the list is full, which n = 4 at k = 4-8 and
        # 11 checks upward, where the universe's count and, from k = 5,
        # the split ceiling cut them too.
        for q in range(n + 1):
            full = brute_force_mq(n, k, q, argmax_cap=comb(2**n, k)).argmax_examples
            for cap in range(4):
                res = brute_force_mq(n, k, q, argmax_cap=cap)
                assert res.argmax_examples == full[:cap], (q, cap)

    @pytest.mark.parametrize(
        "n,k,cap",
        [(n, k, None) for n in range(1, 4) for k in range(1, 2**n + 1)]
        + [(4, k, cap) for k in range(5, 12) for cap in (0, 1, 2, 3, 4, None)]
        + [(4, k, cap) for k in (1, 2, 3, 4, *range(12, 17)) for cap in (0, 3)]
        + [(5, k, 2) for k in (1, 2, 3, 29, 30, 31, 32)]
        + [(6, k, cap) for k in (62, 63) for cap in (0, 2)],
    )
    def test_walks_agree_across_the_switch(self, n, k, cap):
        # Each direction checks the other outside the range where it runs:
        # (best, argmax list, scanned) must be identical on both sides of
        # the split ceiling's floor, which n = 4 at k = 11 and 12 straddle
        # (C(16, 12) = 1820 sets, under 2000) and n = 6 at k = 62 and 63
        # (C(64, 62) = 2016); past it the scan walks downward from
        # 2k > 2^n on. Only the upward walk takes the split ceiling, so the
        # downward walk checks it on every n <= 4 size it cuts, k = 5-11 of
        # the 4-cube, at caps 0-4 and uncapped (None).
        if cap is None:
            cap = comb(2**n, k)
        for q in range(n + 1):
            assert _walk(n, k, q, cap, False, {}) == _walk(n, k, q, cap, True, {}), q

    @pytest.mark.parametrize(
        "n,k,q",
        [
            (n, k, q)
            for n in range(1, 5)
            for k in range(1, 2**n + 1)
            for q in range(n + 1)
            if q == 0 or k < 2**q
        ],
    )
    def test_uniform_sizes_match_the_walk(self, n, k, q):
        # Where every k-set holds the same count, at q = 0 and below
        # k = 2^q, no set is walked; the walk, which is never asked there,
        # must give the same result in both directions.
        for cap in (0, 1, 2, 3, 4, comb(2**n, k)):
            res = brute_force_mq(n, k, q, argmax_cap=cap)
            got = (res.max_count, list(res.argmax_examples), res.total_subsets_scanned)
            for down in (False, True):
                assert _walk(n, k, q, cap, down, {}) == got, (cap, down)

    @pytest.mark.parametrize(
        "n,k,q,down",
        [(5, 24, 1, False), (5, 29, 1, False), (6, 60, 2, False)]
        + [(4, 12, 1, True), (5, 30, 1, True), (8, 254, 3, True), (16, 65535, 1, True)],
    )
    def test_scan_direction(self, n, k, q, down, monkeypatch):
        # No result shows the direction, which both walks agree on, so it
        # is read off the walk the entry starts: upward wherever the split
        # ceiling's floor holds, even past half the cube, and else
        # downward from 2k > 2^n on.
        asked = []
        monkeypatch.setattr("cubeseg.oracle._walk", lambda *args: asked.append(args[4]))
        _scan(n, k, q, 1, {})
        assert asked == [down]

    def test_no_result_reads_the_formula(self, monkeypatch):
        # The split ceiling takes its (n - 1)-cube maxima from the oracle's
        # own scans, so a wrong prefix_hq moves matches_formula and nothing
        # else: the maximum, the argmax list and the count stay the same.
        cases = [(n, k, q) for n in range(1, 5) for k in range(1, 2**n + 1) for q in range(n + 1)]
        cases += [(5, k, q) for k in (1, 2, 3, 30, 31, 32) for q in range(6)] + [(5, 17, 1)]
        right = {case: brute_force_mq(*case, budget=10**9) for case in cases}
        monkeypatch.setattr("cubeseg.oracle.prefix_hq", lambda k, q: prefix_hq(k, q) + 1)
        for case in cases:
            res, was = brute_force_mq(*case, budget=10**9), right[case]
            assert res.max_count == was.max_count, case
            assert res.argmax_examples == was.argmax_examples, case
            assert res.total_subsets_scanned == was.total_subsets_scanned, case
            assert was.matches_formula and not res.matches_formula, case

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


class TestLeads:
    """The pick test of the oracle's symmetry cut never rejects the first or
    second pick of a set that is least in its orbit.

    No result can show a wrong pick test, since the cut waits for a full
    argmax list and the first set scanned is already a maximizer, so
    these tests are its only check."""

    @staticmethod
    def _check(members, n):
        least = min(oracles.orbit(members, n))
        removed = [v for v in range(2**n) if v not in least]
        # upward the picks are the set's members, downward the removed
        # set's, smallest first
        for picks, down in ((least, False), (removed, True)):
            if picks:
                assert _leads(picks[0], -1, down), (least, down)
            if len(picks) > 1:
                assert _leads(picks[1], picks[0], down), (least, down)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_least_images_lead_in_small_cubes(self, n):
        # every nonempty set, since k >= 1; the empty set holds no 0
        for bits in range(1, 2 ** 2**n):
            self._check([v for v in range(2**n) if bits >> v & 1], n)

    def test_least_images_lead_in_the_4_cube(self):
        rng = random.Random(4)
        for _ in range(400):
            self._check(rng.sample(range(16), rng.randrange(1, 16)), 4)


class TestMaskTable:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_masks_match_generated_subcubes(self, n):
        # Each vertex's masks against itertools-generated subcubes, all
        # those through it, without itself, in ascending order.
        for q in range(n + 1):
            table = _MaskTable(n, q)
            for v in range(2**n):
                expected = sorted(
                    sum(1 << u for u in cube if u != v)
                    for cube in oracles._subcubes(n, q)
                    if v in cube
                )
                assert table.masks(v) == expected, (q, v)

    def test_kept_masks_stay_within_the_byte_bound(self):
        # All 66 subcubes of dimension 2 through each vertex of the
        # 12-cube take ~91 MiB as masks of up to 4096 bits, so the table
        # keeps some vertices and rebuilds the rest at each use.
        table = _MaskTable(12, 2)
        for v in range(2**12):
            masks = table.masks(v)
            assert masks == table.build(v)
            assert len(masks) == 66
        kept = [masks for masks in table.kept if masks is not None]
        assert 0 < len(kept) < 2**12
        used = getsizeof(table.kept) + sum(
            getsizeof(masks) + sum(map(getsizeof, masks)) for masks in kept
        )
        used += getsizeof(table.shapes) + sum(
            getsizeof(pair) + sum(map(getsizeof, pair)) for pair in table.shapes
        )
        assert len(table.shapes) == comb(12, 2)
        assert used == _TABLE_BYTES - table.room <= _TABLE_BYTES

    def test_one_table_per_scan(self, monkeypatch):
        # An upward scan that keeps its universe's count reads the masks
        # it scores with for the universe's upkeep too. The split ceiling's
        # scans of the 3-cube, at q = 2 and 1, make their own.
        made = []

        class Counted(_MaskTable):
            def __init__(self, n, q):
                made.append((n, q))
                super().__init__(n, q)

        monkeypatch.setattr("cubeseg.oracle._MaskTable", Counted)
        assert brute_force_mq(4, 8, 2).max_count == prefix_hq(8, 2)
        assert made[0] == (4, 2) and made.count((4, 2)) == 1
        assert set(made[1:]) == {(3, 2), (3, 1)}

    def test_a_scan_that_builds_no_mask_makes_no_shape(self):
        # One removal from the 20-cube scores C(20, 10) without a mask, so
        # none of the C(20, 10) shapes of up to 2^20 bits, gigabytes in
        # all, is made; the table's 2^20 empty entries are most of the peak.
        tracemalloc.start()
        try:
            res = brute_force_mq(20, 2**20 - 1, 10, argmax_cap=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.max_count == comb(20, 10) * (2**10 - 1)
        assert peak < 32 * 2**20


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
