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
mutant is never counted as caught by a test that fails anyway.

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
    # A shared width one byte short is caught only at kmax = 1, where it is
    # 0 and the guard shift fails. Only the leads and the losses must stay
    # below 2^(w-1), and in no tested table does one byte less let either
    # reach it (see CHANGES.md). A width fixed from the last row's tail
    # sums, the smallest, is caught.
    Mutant(
        "build_table: fields sized from the last row's tail sums",
        "recursion.py",
        "size = tails[1][kmax].bit_length() // 8 + 1",
        "size = tails[last][kmax].bit_length() // 8 + 1",
        "tests/test_recursion.py",
        "full_scan or tail_rule",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[6-98]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[8-600]",
            "tests/test_recursion.py::TestMaximizers::test_tail_rule",
        ),
    ),
    Mutant(
        "build_table: a row takes the previous row's tuple when the top marks agree",
        "recursion.py",
        "if hits != seen:",
        "if hits.bit_length() != seen.bit_length():",
        "tests/test_recursion.py",
        "full_scan",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[6-98]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[8-600]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[3-1100]",
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
        "build_table: every row copied from the row below it",
        "recursion.py",
        "values[q - 1] == values[q - 2]",
        "values[q - 1] == values[q - 1]",
        "tests/test_recursion.py",
        "full_scan",
        (
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[6-98]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[16-40]",
            "tests/test_recursion.py::TestBuildTable::test_matches_full_scan[30-100]",
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
        "top = picks - 1",
        "top = picks - 2",
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
        "found.append((shape ^ 1 << (v - low)) << low)",
        "found.append(shape << low)",
        "tests/test_oracle.py",
        "masks_match or independent_reference",
        (
            "tests/test_oracle.py::TestMaskTable::test_masks_match_generated_subcubes[3]",
            "tests/test_oracle.py::TestMaskTable::test_masks_match_generated_subcubes[5]",
            "tests/test_oracle.py::TestBruteForce::test_matches_independent_reference[4-8]",
        ),
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
        for i, mutant in enumerate(MUTANTS):
            found = _check(mutant, Path(tmp) / str(i))
            print(f"{'FAIL' if found else 'ok  '} {mutant.name}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    verdict = "gate failed" if problems else "every mutant caught"
    print(f"{len(MUTANTS)} mutants, {verdict}, {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
