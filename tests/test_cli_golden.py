"""Byte-exact stdout of every CLI subcommand in every output format.

``data/cli_golden.txt`` holds one section per run: a ``$ cubeseg <argv>``
line followed by the exact stdout of that run. ``VERTEX_FILE`` in an argv
stands for a decimal vertex file holding 0, 1 and 3.
"""

from pathlib import Path

import pytest

from cubeseg.cli import run

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"
PROMPT = "$ cubeseg "


def _sections():
    sections = []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith(PROMPT):
            sections.append((line[len(PROMPT):].strip(), []))
        else:
            sections[-1][1].append(line)
    return [(argv, "".join(out)) for argv, out in sections]


SECTIONS = _sections()


def test_every_subcommand_and_format_is_pinned():
    pinned = {(argv.split()[0], argv.split()[-1]) for argv, _ in SECTIONS}
    commands = {"fq", "count", "optimal", "oracle", "bijection", "hypercubic",
                "counterexample"}
    assert pinned == {(c, f) for c in commands for f in ("plain", "json", "csv")}


@pytest.mark.parametrize("argv,expected", SECTIONS, ids=[a for a, _ in SECTIONS])
def test_stdout_is_byte_exact(capsys, tmp_path, argv, expected):
    vertex_file = tmp_path / "vertices.txt"
    vertex_file.write_text("0\n1\n3\n", encoding="utf-8")
    rc = run(argv.replace("VERTEX_FILE", str(vertex_file)).split())
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert captured.out == expected


def test_runs_in_one_process_share_no_parser_state(capsys):
    # The parser is built once per process: a failed parse that set
    # --argmax-cap and --output, and a run of another subcommand, must
    # leave the defaults of the next run as they were.
    golden = dict(SECTIONS)
    assert run("oracle --dim 2 --k 3 --argmax-cap 0 --output csv".split()) == 1
    assert capsys.readouterr().out == ""
    argv = "counterexample --qmax 3 --kmax 12 --output json"
    assert run(argv.split()) == 0
    assert capsys.readouterr().out == golden[argv]
    assert run("oracle --dim 2 --k 3 --q 1".split()) == 0
    expected = golden["oracle --dim 2 --k 3 --q 1 --output plain"]
    assert capsys.readouterr().out == expected
