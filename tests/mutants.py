"""Source mutants that the test suite must catch.

Run from the root of a checkout, with pytest and hypothesis installed:

    python tests/mutants.py

A mutant plants one fault: it replaces one snippet of one file under
``src/`` and names the tests that must catch it. ``check_table``, which
Tier-1 runs too, first checks that each snippet occurs exactly once in
its file and that each named test is defined. Every named test runs
once against an unmutated copy of ``src/`` and must pass, so no mutant is
counted as caught by a test that fails anyway. Each mutant runs pytest on
its named tests against its own mutated copy, and is caught when pytest
exits 1 with every named test failing; an id that names no test makes
pytest exit 4. The control run and the mutants are jobs of one pool, one
process per CPU, the control first. Verdicts print in table order.

The file name keeps it out of Tier-1 collection (``test_*.py``). It uses
only the standard library and exits non-zero when the gate fails.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/cubeseg
    snippet: str  # must occur exactly once in the file
    replacement: str
    must_fail: tuple[str, ...]  # node ids, as the pytest summary prints them


MUTANTS = (
    Mutant(
        "peel: no m_{j-1} coefficient update",
        "cube.py",
        "coeffs = [c + d for c, d in zip(coeffs, [*coeffs[1:], 0])]",
        "pass",
        (
            "tests/test_cube.py::TestCountingKernels::test_peeled_halves_match_naive[1]",
            "tests/test_cube.py::TestCountingKernels::test_peeled_halves_match_naive[10]",
            "tests/test_cube.py::TestCountingKernels::test_full_cube_closed_form[20]",
        ),
    ),
    Mutant(
        "peel: keep H when H is full",
        "cube.py",
        "bits = high if low == ones else low",
        "bits = high",
        (
            "tests/test_cube.py::TestCountingKernels::test_peeled_halves_match_naive[2]",
            "tests/test_cube.py::TestCountingKernels::test_peeled_halves_match_naive[10]",
        ),
    ),
    # c_{q+1} is 0, so the deepest nodes count nothing
    Mutant(
        "walk: a node at depth d weighted by c_{d+1}",
        "cube.py",
        "coeffs[depth] * folded.bit_count()",
        "[*coeffs, 0][depth + 1] * folded.bit_count()",
        (
            "tests/test_cube.py::TestCountingKernels::test_peeled_halves_match_naive[3]",
            "tests/test_cube.py::TestCountingKernels::test_peeled_halves_match_naive[6]",
            "tests/test_cube.py::TestCountingKernels::test_peeled_halves_match_naive[10]",
        ),
    ),
    Mutant(
        "prefix_hq: set bits above b not counted",
        "weights.py",
        "total += comb(above, q - j) * comb(b, j) << (b - j)\n            above += 1",
        "total += comb(above, q - j) * comb(b, j) << (b - j)",
        (
            "tests/test_weights.py::TestPrefixHq::test_matches_running_sum",
            "tests/test_weights.py::TestPrefixHq::test_matches_reference_sum",
        ),
    ),
    Mutant(
        "bijection: Hall threshold allows a deficit of one",
        "bijection.py",
        "all(spare >= 0 for spare",
        "all(spare >= -1 for spare",
        (
            "tests/test_bijection.py::TestFindSpecialBijection::test_existence_matches_sort_and_pair",
            "tests/test_bijection.py::TestFindSpecialBijection"
            "::test_existence_matches_brute_force_away_from_zero",
        ),
    ),
    # x = 2^(p-1) + y = r is already A_q(r)'s last entry, r itself
    Mutant(
        "build_table: a shifted entry kept at r as well as past it",
        "recursion.py",
        "if half + y > r]",
        "if half + y >= r]",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[6-98]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[2-96]",
            "tests/test_recursion.py::TestMaximizers::test_tail_rule",
            "tests/test_recursion.py::TestMaximizers::test_row_one_is_hypercubic",
        ),
    ),
    # i = 2^(q-2) - 1 is the first i of weight q - 2, so x = 2^(q-2) fails
    Mutant(
        "build_table: S bounded by 2^(q-2) in place of 2^(q-2) - 1",
        "recursion.py",
        "bisect_left(part, low >> 1)",
        "bisect_left(part, (low >> 1) + 1)",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[6-98]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[3-1100]",
            "tests/test_recursion.py::TestMaximizers::test_tail_rule",
        ),
    ),
    Mutant(
        "build_table: A_q(r) without the mirror r - S",
        "recursion.py",
        "*[firsts[r - x - 1] for x in reversed(part)], ",
        "",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[6-98]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[8-600]",
            "tests/test_recursion.py::TestMaximizers::test_tail_rule",
        ),
    ),
    Mutant(
        "build_table: shifted entries read row q in place of row q - 1",
        "recursion.py",
        "for y in (0, *below[r])",
        "for y in (0, *row[r])",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[6-98]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[8-600]",
            "tests/test_recursion.py::TestMaximizers::test_tail_rule",
        ),
    ),
    # every table stays exact; only the shared tuples go, and with them
    # the counterexample scan's reuse of one excess per distinct tuple
    Mutant(
        "build_table: A_q(r) equal to A_{q-1}(r) built anew",
        "recursion.py",
        "if 2 * s + 1 == len(kept_below[r]):",
        "if False:",
        ("tests/test_recursion.py::TestMaximizers::test_equal_tuples_are_shared",),
    ),
    Mutant(
        "build_table: rows past the weight bound start one row early",
        "recursion.py",
        "top = min(qmax, bits)",
        "top = min(qmax, bits - 1)",
        (
            "tests/test_recursion.py::TestBuildTable::test_copied_all_tie_rows",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[16-40]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[12-300]",
        ),
    ),
    Mutant(
        "build_table: closed-form row counts one weight too many",
        "recursion.py",
        "comb(w, q) for w in range(bits)",
        "comb(w + 1, q) for w in range(bits)",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[6-98]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[3-2]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan_on_random_shapes",
        ),
    ),
    # The excess of the first row past row 1 with a tuple of its own, kept
    # for every later q of that k, misses what the rows above add
    Mutant(
        "counterexamples: excess reused by k alone",
        "recursion.py",
        "if (maxi := sets[(q, k)]) is not last:",
        "if (maxi := sets[(q, k)]) is not last and hypercubic is None:",
        (
            "tests/test_recursion.py::TestOnlyIfCounterexamples"
            "::test_records_match_a_scan_of_every_pair",
            "tests/test_recursion.py::TestTableBounds::test_largest_counterexample_report_listed",
        ),
    ),
    # Row q - 1 holds row 1, so the excess loses the maximizers that row
    # q - 1 already had, whenever q - 1 > 1
    Mutant(
        "counterexamples: filtered against row q - 1, not row 1",
        "recursion.py",
        "if hypercubic is None:\n                    hypercubic = frozenset(hyper).__contains__",
        "if True:\n                    hypercubic = frozenset(sets[(q - 1, k)]).__contains__",
        (
            "tests/test_recursion.py::TestOnlyIfCounterexamples"
            "::test_records_match_a_scan_of_every_pair",
            "tests/test_recursion.py::TestTableBounds::test_largest_counterexample_report_listed",
        ),
    ),
    Mutant(
        "bijection: size bound one short",
        "bijection.py",
        "if I.size > 1 << _MAX_DIM:",
        "if I.size >= 1 << _MAX_DIM:",
        ("tests/test_bijection.py::TestFindSpecialBijection::test_largest_intervals_accepted",),
    ),
    Mutant(
        "parser: no gather of marks set by earlier chunks",
        "cube.py",
        " or any(itemgetter(vs[0], *vs)(marks))",
        "",
        ("tests/test_cube.py::TestTextFormat::test_duplicate_of_an_earlier_chunk",),
    ),
    Mutant(
        "upward walk: a prefix member never reaches its last value",
        "oracle.py",
        "stop, cut = size - left + 1, -1",
        "stop, cut = size - left, -1",
        (
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-11]",
            "tests/test_oracle.py::TestBruteForce::test_walks_agree_across_the_switch[4-11-4]",
            "tests/test_oracle.py::TestBruteForce::test_walks_agree_across_the_switch[5-3-2]",
        ),
    ),
    Mutant(
        "downward walk: a removal never reaches start",
        "oracle.py",
        "range(size - left, start - 1, -1)",
        "range(size - left, start, -1)",
        (
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-12]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[5-30]",
            "tests/test_oracle.py::TestBruteForce::test_walks_agree_across_the_switch[4-12-3]",
        ),
    ),
    # Masks leave out the vertex they are scored at, so a count taken after
    # v's own flip equals the one taken before it; the fault left to catch
    # is a count taken in the set the walk started from (the whole cube
    # downward), before the earlier picks.
    Mutant(
        "walk: subcubes counted in the root set, not the current one",
        "oracle.py",
        "if bits & m == m:",
        "if root & m == m:",
        (
            "tests/test_oracle.py::TestBruteForce::test_two_removed_from_the_8_cube",
            "tests/test_oracle.py::TestBruteForce::test_walks_agree_across_the_switch[3-6-None]",
            "tests/test_oracle.py::TestBruteForce::test_walks_agree_across_the_switch[5-2-2]",
        ),
    ),
    # The first removal's C(n, q) is taken before the walk starts and every
    # later removal is scored against the table; the fault is a second
    # removal that skips the table as the first does.
    Mutant(
        "downward walk: a second removal scored as the first",
        "oracle.py",
        "top, reach = picks - 1,",
        "top, reach = picks - 2,",
        (
            "tests/test_oracle.py::TestBruteForce::test_two_removed_from_the_8_cube",
            "tests/test_oracle.py::TestBruteForce::test_walks_agree_across_the_switch[3-6-None]",
            "tests/test_oracle.py::TestBruteForce::test_walks_agree_across_the_switch[5-30-2]",
        ),
    ),
    Mutant(
        "upward walk: prefix-size test one member too strict",
        "oracle.py",
        "k - (1 << q) + 1",
        "k - (1 << q)",
        (
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[2-2]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[3-3]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-8]",
        ),
    ),
    Mutant(
        "mask table: a mask keeps its scored vertex",
        "oracle.py",
        "(shape ^ 1 << (v & span)) << (v & ~span)",
        "shape << (v & ~span)",
        (
            "tests/test_oracle.py::TestMaskTable::test_masks_match_generated_subcubes[3]",
            "tests/test_oracle.py::TestMaskTable::test_masks_match_generated_subcubes[5]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-8]",
        ),
    ),
    # The scoring loop stops at the first mask past the set's indicator,
    # which is exact only when every later mask is past it too.
    Mutant(
        "mask table: masks left unsorted",
        "oracle.py",
        "return sorted((shape",
        "return list((shape",
        (
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[2-2]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[3-3]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-8]",
        ),
    ),
    # The first two cuts drop what a full scan keeps or counts. A looser
    # ceiling changes no result, only the time a scan takes, so only a
    # deadline sees the third: with a universe that barely shrinks, the
    # 601 M sets of the deep-cut test at cap 4 run past its 5 s.
    Mutant(
        "walk: ties cut before the argmax list is full",
        "oracle.py",
        "bar = best + (len(examples) >= cap)",
        "bar = best + 1",
        (
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[3-4]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-8]",
            "tests/test_oracle.py::TestBruteForce::test_uniform_sizes_match_the_walk[3-5-0]",
            "tests/test_oracle.py::TestBruteForce::test_uniform_sizes_match_the_walk[4-3-2]",
        ),
    ),
    # A pick test that cuts too much changes no result, since it waits for
    # a full list and the first set scanned is a maximizer; only the orbit
    # tests see the second and third. The first cuts before the list is
    # full, and so drops ties from it.
    Mutant(
        "walk: symmetry cut before the argmax list is full",
        "oracle.py",
        "or lead and len(examples) >= cap and not _leads(v, start - 1, down)",
        "or lead and not _leads(v, start - 1, down)",
        (
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[2-2]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[3-2]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[3-6]",
        ),
    ),
    Mutant(
        "pick test: a second pick of 2^j, not 2^j - 1",
        "oracle.py",
        "v & (v + 1) == 0",
        "v & (v - 1) == 0",
        (
            "tests/test_oracle.py::TestLeads::test_least_images_lead_in_small_cubes[2]",
            "tests/test_oracle.py::TestLeads::test_least_images_lead_in_small_cubes[3]",
            "tests/test_oracle.py::TestLeads::test_least_images_lead_in_the_4_cube",
        ),
    ),
    Mutant(
        "pick test: a first removal of 1 cut, not of 0",
        "oracle.py",
        "v != 0 if prior < 0",
        "v != 1 if prior < 0",
        (
            "tests/test_oracle.py::TestLeads::test_least_images_lead_in_small_cubes[2]",
            "tests/test_oracle.py::TestLeads::test_least_images_lead_in_small_cubes[3]",
            "tests/test_oracle.py::TestLeads::test_least_images_lead_in_the_4_cube",
        ),
    ),
    Mutant(
        "walk: a cut subtree's sets not added to scanned",
        "oracle.py",
        "scanned += comb(size - v - 1, left - 1)",
        "pass",
        (
            "tests/test_oracle.py::TestBruteForce::test_half_of_the_5_cube_is_cut_deep[4]",
            "tests/test_oracle.py::TestBruteForce::test_half_of_the_5_cube_is_cut_deep_at_cap_4",
            "tests/test_oracle.py::TestBruteForce::test_scan_bound_holds_whatever_the_budget",
            "tests/test_oracle.py::TestBruteForce::test_uniform_sizes_match_the_walk[4-8-0]",
        ),
    ),
    Mutant(
        "upward walk: universe ceiling lowered by subcubes inside the picked set, not the universe",
        "oracle.py",
        "if inside & m == m:",
        "if bits & m == m:",
        ("tests/test_oracle.py::TestBruteForce::test_half_of_the_5_cube_is_cut_deep_at_cap_4",),
    ),
    # A split ceiling that is too strong cuts sets that tie with the best
    # or beat it. At cap 1 the first leaf, the initial segment, fills the
    # list before any could be lost, so only caps of 2 or more show these;
    # the n = 4 sizes the split cuts run at such caps in both tests.
    Mutant(
        "split ceiling: no term for the subcubes across the split",
        "oracle.py",
        "for key in ((n - 1, left, q), (n - 1, min(left, k - left), q - 1)):",
        "for key in ((n - 1, left, q),):",
        (
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-5]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-9]",
            "tests/test_oracle.py::TestBruteForce::test_walks_agree_across_the_switch[4-8-2]",
            "tests/test_oracle.py::TestBruteForce::test_walks_agree_across_the_switch[4-11-None]",
        ),
    ),
    Mutant(
        "split ceiling: cut when it equals the bar",
        "oracle.py",
        "if v == cut and count + _top_half(n, k, q, left, maxima) < bar:",
        "if v == cut and count + _top_half(n, k, q, left, maxima) <= bar:",
        (
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-6]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-10]",
            "tests/test_oracle.py::TestBruteForce::test_walks_agree_across_the_switch[4-8-4]",
        ),
    ),
    Mutant(
        "split ceiling: a last pick cut when it equals the bar",
        "oracle.py",
        "elif count + _top_half(n, k, q, 1, maxima) < bar:",
        "elif count + _top_half(n, k, q, 1, maxima) <= bar:",
        (
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-5]",
            "tests/test_oracle.py::TestBruteForce::test_walks_agree_across_the_switch[4-5-None]",
        ),
    ),
    Mutant(
        "uniform sizes: a q = 0 set counted one vertex short",
        "oracle.py",
        "comb(n, q) * ((size >> q) - (size - k))",
        "comb(n, q) * ((size >> q) - (size - k)) - (q == 0)",
        (
            "tests/test_oracle.py::TestBruteForce::test_singletons_of_the_20_cube_at_q_zero",
            "tests/test_oracle.py::TestBruteForce::test_uniform_sizes_match_the_walk[3-5-0]",
            "tests/test_oracle.py::TestBruteForce::test_uniform_sizes_match_the_walk[4-16-0]",
        ),
    ),
    # Two removed vertices can share subcubes, so their sets differ
    Mutant(
        "uniform sizes: two removals taken as ties",
        "oracle.py",
        "k >= size - 1",
        "k >= size - 2",
        (
            "tests/test_oracle.py::TestBruteForce::test_two_removed_from_the_8_cube",
            "tests/test_oracle.py::TestBruteForce::test_walked_exactly_where_two_sets_differ",
        ),
    ),
    # Both walks give the same result, so only the direction test sees a
    # scan sent down the walk that never takes the split ceiling
    Mutant(
        "direction: the split ceiling's floor not read",
        "oracle.py",
        "not _splits(n, k, q) and 2 * k > size",
        "2 * k > size",
        (
            "tests/test_oracle.py::TestBruteForce::test_scan_direction[5-24-1-False]",
            "tests/test_oracle.py::TestBruteForce::test_scan_direction[5-29-1-False]",
            "tests/test_oracle.py::TestBruteForce::test_scan_direction[6-60-2-False]",
        ),
    ),
    Mutant(
        "package __all__ skips weights",
        "__init__.py",
        ", *weights.__all__",
        "",
        ("tests/test_package.py::TestSurface::test_all_joins_the_modules",),
    ),
    # Row q of a q >= 2 table holds the hypercubic sizes and more
    Mutant(
        "fq: hypercubic column read off row q, not row 1",
        "cli.py",
        "sets[(1, k)]",
        "sets[(ns.q, k)]",
        (
            "tests/test_cli.py::TestFq::test_hypercubic_column_counts_each_bit[3]",
            "tests/test_cli.py::TestFq::test_hypercubic_column_counts_each_bit[12]",
        ),
    ),
    Mutant(
        "an empty --emit-set path is skipped",
        "cli.py",
        "if ns.emit_set is not None:",
        "if ns.emit_set:",
        ("tests/test_cli.py::TestOptimal::test_empty_emit_path_is_input_error",),
    ),
)


@cache
def _defined(path: Path) -> set[str]:
    """The ``test`` and ``Class::test`` names defined in a test file."""
    body = ast.parse(path.read_text(encoding="utf-8")).body if path.is_file() else []
    scopes = [("", body)] + [(f"{c.name}::", c.body) for c in body if isinstance(c, ast.ClassDef)]
    return {pre + f.name for pre, defs in scopes for f in defs if isinstance(f, ast.FunctionDef)}


def check_table() -> list[str]:
    """The faults of ``MUTANTS`` that show without a test run: a name used
    twice, a snippet that does not occur exactly once in its file, no named
    test, and a named test whose file is missing or does not define it."""
    names = Counter(m.name for m in MUTANTS)
    problems = [f"{name}: {n} mutants have this name" for name, n in names.items() if n > 1]
    for m in MUTANTS:
        target = ROOT / "src" / "cubeseg" / m.path
        found = target.read_text(encoding="utf-8").count(m.snippet) if target.is_file() else 0
        if found != 1:
            problems.append(f"{m.name}: snippet occurs {found} times in {m.path}")
        if not m.must_fail:
            problems.append(f"{m.name}: names no test")
        for test in m.must_fail:
            path, _, name = test.partition("[")[0].partition("::")
            if name not in _defined(ROOT / path):
                problems.append(f"{m.name}: {path} is missing or does not define {name}")
    return problems


def _pytest(src: Path, tests) -> tuple[int, set[str], str]:
    """Run pytest on the node ids ``tests`` with ``src`` first on the import
    path; returns the exit code, the failed node ids and the output."""
    env = dict(os.environ, PYTHONPATH=str(src))
    args = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = {line[len("FAILED "):].split(" - ")[0] for line in lines if line.startswith("FAILED ")}
    return proc.returncode, failed, proc.stdout + proc.stderr


def _copy_src(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _check_control(tmp: Path) -> list[str]:
    src = _copy_src(tmp)
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import cubeseg; print(cubeseg.__file__)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    where = proc.stdout.strip()
    if not where.startswith(str(src)):
        return [f"control: cubeseg imports from {where or '?'}, not from the copy"]
    rc, failed, output = _pytest(src, sorted({test for m in MUTANTS for test in m.must_fail}))
    if rc != 0:
        return [f"control: the named tests exit {rc} unmutated, failing {sorted(failed)}\n{output}"]
    return []


def _check(mutant: Mutant, tmp: Path) -> list[str]:
    src = _copy_src(tmp)
    target = src / "cubeseg" / mutant.path
    text = target.read_text(encoding="utf-8")
    target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    rc, failed, output = _pytest(src, mutant.must_fail)
    if rc == 0:
        return [f"{mutant.name}: survived, the named tests passed"]
    if rc != 1:
        return [f"{mutant.name}: pytest exit {rc}, not a test failure\n{output}"]
    missed = [test for test in mutant.must_fail if test not in failed]
    return [f"{mutant.name}: these tests passed: {missed}"] if missed else []


def main() -> int:
    start = time.perf_counter()
    problems = check_table()  # before anything is copied or run
    if not problems:
        with tempfile.TemporaryDirectory(prefix="cubeseg-mutants-") as tmp:
            # each run has its own copy of src/, so they run side by side;
            # the control, the longest, starts first
            with ThreadPoolExecutor(os.cpu_count()) as pool:
                control = pool.submit(_check_control, Path(tmp) / "control")
                checks = pool.map(_check, MUTANTS, [Path(tmp) / str(i) for i in range(len(MUTANTS))])
                for mutant, found in zip(MUTANTS, checks):
                    print(f"{'FAIL' if found else 'ok  '} {mutant.name}", flush=True)
                    problems += found
                problems = control.result() + problems
    for problem in problems:
        print(problem, file=sys.stderr)
    verdict = "gate failed" if problems else "every mutant caught"
    print(f"{len(MUTANTS)} mutants, {verdict}, {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
