"""Source mutants that the test suite must catch.

Run from the root of a checkout, with pytest and hypothesis installed:

    python tests/mutants.py

Each mutant replaces one snippet of one file under ``src/``. For each
mutant the script copies ``src/`` to a temporary directory, applies the
replacement there, runs the mutant's pytest selection against the copy
and requires a non-zero exit with every named test failing. A snippet
that does not occur exactly once fails the gate, so a change to the code
under a mutant has to update the mutant. Before the mutants, the union of
the selections runs once against an unmutated copy and must pass, so a
mutant is never counted as caught by a test that fails anyway. The
mutants then run side by side, one pytest process per CPU, and are
reported in the order they are listed.

The file name keeps it out of Tier-1 collection (``test_*.py``). It uses
only the standard library and exits non-zero when the gate fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/cubeseg
    snippet: str  # must occur exactly once in the file
    replacement: str
    test_file: str
    keyword: str  # the pytest -k expression that selects the tests to run
    must_fail: tuple[str, ...]  # node ids, as the pytest summary prints them


MUTANTS = (
    Mutant(
        "peel: no m_{j-1} coefficient update",
        "cube.py",
        "coeffs = [c + d for c, d in zip(coeffs, [*coeffs[1:], 0])]",
        "pass",
        "tests/test_cube.py",
        "peeled_halves or full_cube_closed_form",
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
        "tests/test_cube.py",
        "peeled_halves",
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
        "tests/test_cube.py",
        "peeled_halves",
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
        "tests/test_weights.py",
        "TestPrefixHq",
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
        "tests/test_bijection.py",
        "existence_matches",
        (
            "tests/test_bijection.py::TestFindSpecialBijection::test_existence_matches_sort_and_pair",
            "tests/test_bijection.py::TestFindSpecialBijection"
            "::test_existence_matches_brute_force_away_from_zero",
        ),
    ),
    Mutant(
        "build_table: guard offset one short, so the maximizers go unmarked",
        "recursion.py",
        "- tail[k] * ones) & guard",
        "- (tail[k] + 1) * ones) & guard",
        "tests/test_recursion.py",
        "full_scan or tail_rule",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[6-98]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[8-600]",
            "tests/test_recursion.py::TestMaximizers::test_tail_rule",
        ),
    ),
    # The top row's G_last(kmax) bounds every field. A width one byte short
    # of it leaves 8-bit fields where that sum lies in [2^7, 2^8), and
    # there a lead or a loss reaches the guard bit: G = 209, 201 and 224 in
    # the three named tables.
    Mutant(
        "build_table: fields one byte short of the top row's tail sums",
        "recursion.py",
        "size = tail[kmax].bit_length() // 8 + 1",
        "size = (tail[kmax].bit_length() - 1) // 8 + 1",
        "tests/test_recursion.py",
        "full_scan",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[2-96]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[3-128]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[1-76]",
        ),
    ),
    Mutant(
        "build_table: a lower row tested against its own tail sums for both terms",
        "recursion.py",
        "if b[a] + t[k - a] == target",
        "if t[a] + t[k - a] == target",
        "tests/test_recursion.py",
        "full_scan or filtered_rows",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[6-98]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[8-600]",
            "tests/test_recursion.py::TestMaximizers::test_filtered_rows_match_packed_rows",
        ),
    ),
    Mutant(
        "build_table: tail sums count one threshold too many",
        "recursion.py",
        "max(0, w - q + 1)",
        "max(0, w - q + 2)",
        "tests/test_recursion.py",
        "full_scan",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[6-98]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[4-48]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[12-300]",
        ),
    ),
    Mutant(
        "build_table: rows past the weight bound start one row early",
        "recursion.py",
        "top = min(qmax, kmax.bit_length())",
        "top = min(qmax, kmax.bit_length() - 1)",
        "tests/test_recursion.py",
        "full_scan or copied_all_tie_rows",
        (
            "tests/test_recursion.py::TestBuildTable::test_copied_all_tie_rows",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[16-40]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[12-300]",
        ),
    ),
    # k = 2^top is the first k whose splits do not all tie in the top row
    Mutant(
        "build_table: tie prefix one k too long",
        "recursion.py",
        "start = 1 << top",
        "start = (1 << top) + 1",
        "tests/test_recursion.py",
        "full_scan or first_k_past",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[8-256]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[6-64]",
            "tests/test_recursion.py::TestMaximizers::test_first_k_past_the_ties",
        ),
    ),
    # k = 2^q is the first k that row q filters, and it keeps one split of
    # the row above's all-tie tuple
    Mutant(
        "build_table: lower row starts one k late",
        "recursion.py",
        "ks[(1 << q) - 2 :]",
        "ks[(1 << q) - 1 :]",
        "tests/test_recursion.py",
        "full_scan or first_k_past",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[6-98]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[8-600]",
            "tests/test_recursion.py::TestMaximizers::test_first_k_past_the_ties",
        ),
    ),
    Mutant(
        "build_table: closed-form row counts one weight too many",
        "recursion.py",
        "comb(w, q) for w in weights",
        "comb(w + 1, q) for w in weights",
        "tests/test_recursion.py",
        "full_scan",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[6-98]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[3-2]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan_on_random_shapes",
        ),
    ),
    # Row 1's maximizers are all hypercubic, so an excess kept from q = 1
    # for every q of a k lists nothing
    Mutant(
        "counterexamples: excess reused by k alone",
        "recursion.py",
        "if (maxi := sets[(q, k)]) is not last:",
        "if (maxi := sets[(q, k)]) is not last and last is None:",
        "tests/test_recursion.py",
        "TestOnlyIfCounterexamples or largest_counterexample",
        (
            "tests/test_recursion.py::TestOnlyIfCounterexamples"
            "::test_expected_witness_at_small_scale",
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
        "tests/test_bijection.py",
        "largest_intervals",
        ("tests/test_bijection.py::TestFindSpecialBijection::test_largest_intervals_accepted",),
    ),
    Mutant(
        "parser: no gather of marks set by earlier chunks",
        "cube.py",
        " or any(itemgetter(vs[0], *vs)(marks))",
        "",
        "tests/test_cube.py",
        "chunk",
        ("tests/test_cube.py::TestTextFormat::test_duplicate_of_an_earlier_chunk",),
    ),
    Mutant(
        "upward walk: a prefix member never reaches its last value",
        "oracle.py",
        "range(start, size - left + 1)",
        "range(start, size - left)",
        "tests/test_oracle.py",
        "walks_agree or independent_reference",
        (
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-8]",
            "tests/test_oracle.py::TestBruteForce::test_walks_agree_across_the_switch[4-8-3]",
            "tests/test_oracle.py::TestBruteForce::test_walks_agree_across_the_switch[5-3-2]",
        ),
    ),
    Mutant(
        "downward walk: a removal never reaches start",
        "oracle.py",
        "range(size - left, start - 1, -1)",
        "range(size - left, start, -1)",
        "tests/test_oracle.py",
        "walks_agree or independent_reference",
        (
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-9]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[5-30]",
            "tests/test_oracle.py::TestBruteForce::test_walks_agree_across_the_switch[4-9-3]",
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
        "tests/test_oracle.py",
        "walks_agree or two_removed",
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
        "tests/test_oracle.py",
        "walks_agree or two_removed",
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
        "tests/test_oracle.py",
        "independent_reference",
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
        "tests/test_oracle.py",
        "masks_match or independent_reference",
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
        "tests/test_oracle.py",
        "independent_reference",
        (
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[2-2]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[3-3]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-8]",
        ),
    ),
    # The first two cuts drop what a full scan keeps or counts. A looser
    # ceiling changes no result, only the time a scan takes, so only a
    # deadline sees the third: with a universe that barely shrinks, the
    # deep-cut test's 601 M sets run past its 5 s.
    Mutant(
        "walk: ties cut before the argmax list is full",
        "oracle.py",
        "bar = best + (len(examples) >= cap)",
        "bar = best + 1",
        "tests/test_oracle.py",
        "independent_reference or lexicographically_capped or singletons",
        (
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[3-4]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-8]",
            "tests/test_oracle.py::TestBruteForce::test_argmax_is_lexicographically_capped",
            "tests/test_oracle.py::TestBruteForce::test_singletons_of_the_20_cube_at_q_zero",
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
        "tests/test_oracle.py",
        "independent_reference and ([2-2] or [3-2] or [3-6])",
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
        "tests/test_oracle.py",
        "least_images",
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
        "tests/test_oracle.py",
        "least_images",
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
        "tests/test_oracle.py",
        "cut_deep or scan_bound",
        (
            "tests/test_oracle.py::TestBruteForce::test_half_of_the_5_cube_is_cut_deep[0]",
            "tests/test_oracle.py::TestBruteForce::test_half_of_the_5_cube_is_cut_deep[5]",
            "tests/test_oracle.py::TestBruteForce::test_scan_bound_holds_whatever_the_budget",
        ),
    ),
    Mutant(
        "upward walk: universe ceiling lowered by subcubes inside the picked set, not the universe",
        "oracle.py",
        "if inside & m == m:",
        "if bits & m == m:",
        "tests/test_oracle.py",
        "cut_deep",
        ("tests/test_oracle.py::TestBruteForce::test_half_of_the_5_cube_is_cut_deep[4]",),
    ),
    Mutant(
        "package __all__ skips weights",
        "__init__.py",
        ", *weights.__all__",
        "",
        "tests/test_package.py",
        "all_joins_the_modules",
        ("tests/test_package.py::TestSurface::test_all_joins_the_modules",),
    ),
    Mutant(
        "an empty --emit-set path is skipped",
        "cli.py",
        "if ns.emit_set is not None:",
        "if ns.emit_set:",
        "tests/test_cli.py",
        "empty_emit_path",
        ("tests/test_cli.py::TestOptimal::test_empty_emit_path_is_input_error",),
    ),
)


def _pytest(src: Path, args) -> tuple[int, set[str], str]:
    """Run pytest with ``args`` and ``src`` first on the import path;
    returns the exit code, the failed node ids and the output."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    failed = {
        line[len("FAILED "):].split(" - ")[0]
        for line in proc.stdout.splitlines()
        if line.startswith("FAILED ")
    }
    return proc.returncode, failed, proc.stdout + proc.stderr


def _copy_src(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _check_control(tmp: Path) -> list[str]:
    src = _copy_src(tmp / "control")
    where = subprocess.run(
        [sys.executable, "-c", "import cubeseg; print(cubeseg.__file__)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    ).stdout.strip()
    if not where.startswith(str(src)):
        return [f"control: cubeseg imports from {where or '?'}, not from the copy"]
    files = sorted({m.test_file for m in MUTANTS})
    union = " or ".join(f"({m.keyword})" for m in MUTANTS)
    rc, failed, output = _pytest(src, (*files, "-k", union))
    if rc != 0:
        return [f"control: the unmutated selections exit {rc}, failing {sorted(failed)}\n{output}"]
    return []


def _check(mutant: Mutant, tmp: Path) -> list[str]:
    src = _copy_src(tmp)
    target = src / "cubeseg" / mutant.path
    text = target.read_text(encoding="utf-8")
    found = text.count(mutant.snippet)
    if found != 1:
        return [f"{mutant.name}: snippet occurs {found} times in {mutant.path}"]
    target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    rc, failed, output = _pytest(src, (mutant.test_file, "-k", mutant.keyword))
    problems = []
    if rc == 0:
        problems.append(f"{mutant.name}: survived, the selection passed")
    elif rc != 1:
        problems.append(f"{mutant.name}: pytest exit {rc}, not a test failure\n{output}")
    missed = [test for test in mutant.must_fail if test not in failed]
    if missed:
        problems.append(f"{mutant.name}: these tests passed: {missed}")
    return problems


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="cubeseg-mutants-") as tmp:
        problems = _check_control(Path(tmp))
        # each mutant has its own copy of src/, so they run side by side
        with ThreadPoolExecutor(os.cpu_count()) as pool:
            checks = pool.map(_check, MUTANTS, [Path(tmp) / str(i) for i in range(len(MUTANTS))])
            for mutant, found in zip(MUTANTS, checks):
                print(f"{'FAIL' if found else 'ok  '} {mutant.name}", flush=True)
                problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    verdict = "gate failed" if problems else "every mutant caught"
    print(f"{len(MUTANTS)} mutants, {verdict}, {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
