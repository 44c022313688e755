"""End-to-end tests for the command-line interface."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import event, given, settings, strategies as st

from cubeseg.cli import run
from cubeseg.cube import initial_segment, load_vertex_set

import oracles


def invoke(capsys, argv):
    rc = run(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestFq:
    def test_csv_table(self, capsys):
        rc, out, err = invoke(capsys, ["fq", "--q", "2", "--kmax", "8", "--output", "csv"])
        assert rc == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == "q,k,F,maximizers,hypercubic"
        assert lines[-1] == "2,8,6,4,4"

    def test_json_rows(self, capsys):
        rc, out, _ = invoke(capsys, ["fq", "--q", "1", "--kmax", "6", "--output", "json"])
        assert rc == 0
        rows = json.loads(out)
        last = rows[-1]
        assert last == {"q": 1, "k": 6, "F": 7, "maximizers": [2, 3], "hypercubic": [2, 3]}

    def test_q_zero_row(self, capsys):
        rc, out, _ = invoke(capsys, ["fq", "--q", "0", "--kmax", "3", "--output", "json"])
        assert rc == 0
        rows = json.loads(out)
        assert [r["F"] for r in rows] == [1, 2, 3]
        assert all(r["maximizers"] == [] for r in rows)

    # The hypercubic column is read off row 1 of the table for q >= 1 and
    # computed per k for q = 0, which builds no row 1; q = 12 is past the
    # top row of kmax = 300. Checked against the direct count of each bit.
    @pytest.mark.parametrize("q", [0, 1, 3, 12])
    def test_hypercubic_column_counts_each_bit(self, capsys, q):
        rc, out, _ = invoke(capsys, ["fq", "--q", str(q), "--kmax", "300", "--output", "json"])
        assert rc == 0
        rows = json.loads(out)
        assert [r["k"] for r in rows] == list(range(1, 301))
        assert rows[0]["hypercubic"] == []
        for r in rows[1:]:
            assert r["hypercubic"] == sorted(oracles.hypercubic_sizes(r["k"])), (q, r["k"])

    # 16385 is the first kmax whose table with a row 1 is past the split
    # bound; fq --q 0 builds no row 1, so it still answers
    def test_q_zero_past_the_row_one_bound(self, capsys):
        rc, out, err = invoke(capsys, ["fq", "--q", "0", "--kmax", "16385", "--output", "csv"])
        assert rc == 0 and err == ""
        assert out.splitlines()[-1] == "0,16385,16385,,1|8192"

    def test_bad_kmax(self, capsys):
        rc, out, err = invoke(capsys, ["fq", "--q", "1", "--kmax", "0"])
        assert rc == 1 and out == "" and err

    def test_negative_q(self, capsys):
        rc, out, err = invoke(capsys, ["fq", "--q", "-1", "--kmax", "5"])
        assert (rc, out, err) == (1, "", "error: --q must be >= 0, got -1\n")

    # A table past the size bound is refused before it is built, not by
    # a MemoryError traceback
    @pytest.mark.parametrize(
        "argv",
        [
            ["fq", "--q", "1", "--kmax", "100000000"],
            ["counterexample", "--qmax", "2", "--kmax", "100000000"],
        ],
    )
    def test_table_past_the_size_bound(self, capsys, argv):
        rc, out, err = invoke(capsys, argv)
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCount:
    def test_square_file(self, capsys, tmp_path):
        path = tmp_path / "square.txt"
        path.write_text("# the full square\n0\n1\n2\n3\n")
        rc, out, err = invoke(
            capsys, ["count", "--dim", "2", "--q", "1", "--input", str(path)]
        )
        assert rc == 0 and err == ""
        assert out == "4\n"

    def test_binary_file(self, capsys, tmp_path):
        path = tmp_path / "verts.txt"
        path.write_text("000\n001\n010\n011\n100\n101\n")
        rc, out, _ = invoke(
            capsys,
            ["count", "--dim", "3", "--q", "1", "--input", str(path),
             "--input-format", "binary"],
        )
        assert rc == 0
        assert out == "7\n"

    def test_duplicate_vertex_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("1\n1\n")
        rc, out, err = invoke(
            capsys, ["count", "--dim", "2", "--q", "1", "--input", str(path)]
        )
        assert rc == 2
        assert out == ""  # no partial output
        assert "duplicate" in err

    def test_out_of_range_vertex_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("9\n")
        rc, out, err = invoke(
            capsys, ["count", "--dim", "2", "--q", "1", "--input", str(path)]
        )
        assert rc == 2 and out == "" and "outside" in err

    def test_overlong_decimal_vertex_is_input_error(self, capsys, tmp_path):
        # 5000 digits is past int()'s digit limit; it must be read as out of
        # range, not escape as a ValueError with exit code 1
        path = tmp_path / "long.txt"
        path.write_text("0\n" + "9" * 5000 + "\n")
        rc, out, err = invoke(
            capsys, ["count", "--dim", "4", "--q", "1", "--input", str(path)]
        )
        assert rc == 2 and out == ""
        assert err.startswith("input error: line 2: vertex 999")
        assert err.endswith(" outside [0, 15] for dim 4\n")

    @pytest.mark.parametrize(
        "line", ["\u00b2", "\u0661\u0662"], ids=["superscript-two", "arabic-indic-12"]
    )
    def test_non_ascii_digits_are_input_error(self, capsys, tmp_path, line):
        path = tmp_path / "digits.txt"
        path.write_text(line + "\n", encoding="utf-8")
        rc, out, err = invoke(
            capsys, ["count", "--dim", "4", "--q", "0", "--input", str(path)]
        )
        assert rc == 2 and out == "" and "decimal" in err

    def test_invalid_utf8_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xff\n")
        rc, out, err = invoke(
            capsys, ["count", "--dim", "4", "--q", "0", "--input", str(path)]
        )
        assert rc == 2 and out == "" and "UTF-8" in err

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        rc, out, err = invoke(
            capsys,
            ["count", "--dim", "2", "--q", "1", "--input", str(tmp_path / "nope")],
        )
        assert rc == 2 and out == ""

    def test_q_out_of_range_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("0\n")
        rc, out, err = invoke(
            capsys, ["count", "--dim", "2", "--q", "3", "--input", str(path)]
        )
        assert rc == 1 and out == ""

    @pytest.mark.parametrize("dim, q, message", [
        ("21", "1", "dim must be in [1, 20], got 21"),
        ("3", "9", "q must be in [0, 3], got 9"),
    ])
    def test_usage_checked_before_file_is_opened(self, capsys, tmp_path, dim, q, message):
        rc, out, err = invoke(
            capsys, ["count", "--dim", dim, "--q", q, "--input", str(tmp_path / "nope")]
        )
        assert rc == 1 and out == "" and message in err


class TestOptimal:
    def test_plain_value(self, capsys):
        rc, out, _ = invoke(capsys, ["optimal", "--dim", "3", "--q", "1", "--k", "8"])
        assert rc == 0
        assert out == "12\n"

    @pytest.mark.parametrize("fmt", ["decimal", "binary"])
    def test_emit_set_round_trip(self, capsys, tmp_path, fmt):
        path = tmp_path / "seg.txt"
        rc, out, _ = invoke(
            capsys,
            ["optimal", "--dim", "3", "--q", "2", "--k", "5",
             "--emit-set", str(path), "--input-format", fmt],
        )
        assert rc == 0
        assert out == "1\n"
        assert load_vertex_set(path, 3, fmt) == initial_segment(5, 3)

    def test_emitted_file_feeds_count(self, capsys, tmp_path):
        path = tmp_path / "seg.txt"
        invoke(
            capsys,
            ["optimal", "--dim", "3", "--q", "1", "--k", "6", "--emit-set", str(path)],
        )
        rc, out, _ = invoke(
            capsys, ["count", "--dim", "3", "--q", "1", "--input", str(path)]
        )
        assert rc == 0
        assert out == "7\n"

    def test_empty_emit_path_is_input_error(self, capsys):
        rc, out, err = invoke(
            capsys, ["optimal", "--dim", "3", "--q", "1", "--k", "6", "--emit-set", ""]
        )
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("input error: ")

    def test_k_beyond_cube_is_usage_error(self, capsys):
        rc, out, err = invoke(capsys, ["optimal", "--dim", "2", "--q", "1", "--k", "5"])
        assert rc == 1 and out == ""

    def test_q_bound_worded_as_in_count(self, capsys, tmp_path):
        missing = str(tmp_path / "nope")
        for argv in (
            ["optimal", "--dim", "3", "--q", "9", "--k", "1"],
            ["count", "--dim", "3", "--q", "9", "--input", missing],
        ):
            rc, out, err = invoke(capsys, argv)
            assert (rc, out, err) == (1, "", "error: q must be in [0, 3], got 9\n")


class TestOracleCommand:
    def test_json_schema(self, capsys):
        rc, out, _ = invoke(
            capsys, ["oracle", "--dim", "2", "--k", "3", "--q", "1", "--output", "json"]
        )
        assert rc == 0
        obj = json.loads(out)
        assert list(obj) == [
            "n", "k", "q", "max_count", "formula_value", "matches_formula",
            "argmax", "scanned",
        ]
        assert obj["max_count"] == 2
        assert obj["formula_value"] == 2
        assert obj["matches_formula"] is True
        assert obj["scanned"] == 4
        assert obj["argmax"][0] == [0, 1, 2]

    def test_budget_flag_exceeded(self, capsys):
        rc, out, err = invoke(
            capsys,
            ["oracle", "--dim", "4", "--k", "8", "--q", "1", "--budget", "10"],
        )
        assert rc == 3 and out == ""
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # 10^700 covers C(2048, 1024), but the oracle starts no scan of
            # more than 2^64 subsets
            ["--dim", "11", "--k", "1024", "--q", "1", "--budget", str(10**700)],
            # C(2^16, 2^15) has more digits than str() prints
            ["--dim", "16", "--k", "32768", "--q", "1"],
        ],
    )
    def test_scan_bound_beyond_any_budget(self, capsys, argv):
        rc, out, err = invoke(capsys, ["oracle", *argv])
        assert rc == 3 and out == ""
        assert err.startswith("budget exceeded: enumeration needs more than 2^")
        assert err.count("\n") == 1

    def test_budget_ignores_environment(self, capsys, monkeypatch):
        # The budget is set by --budget only; C(16, 8) = 12870 fits the default.
        monkeypatch.setenv("CUBESEG_BUDGET", "10")
        rc, out, err = invoke(
            capsys, ["oracle", "--dim", "4", "--k", "8", "--q", "1", "--output", "json"]
        )
        assert rc == 0 and err == ""
        assert json.loads(out)["scanned"] == 12870

    def test_help_shows_budget_default(self, capsys):
        rc, out, _ = invoke(capsys, ["oracle", "--help"])
        assert rc == 0
        assert "(default: 20000000)" in " ".join(out.split())

    @pytest.mark.parametrize("dim", ["64", "20000"])
    def test_dim_beyond_cube_is_usage_error(self, capsys, dim):
        rc, out, err = invoke(capsys, ["oracle", "--dim", dim, "--k", "1", "--q", "0"])
        assert rc == 1 and out == ""
        assert "dim" in err


class TestBijectionCommand:
    def test_witness_json(self, capsys):
        rc, out, _ = invoke(capsys, ["bijection", "0", "1", "2", "3", "--output", "json"])
        assert rc == 0
        obj = json.loads(out)
        assert obj == {
            "source": {"lo": 0, "hi": 1},
            "target": {"lo": 2, "hi": 3},
            "strict_required": True,
            "map": [[0, 2], [1, 3]],
        }

    def test_not_found(self, capsys):
        rc, out, _ = invoke(capsys, ["bijection", "3", "3", "4", "4", "--output", "json"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["found"] is False

    def test_bad_intervals_are_usage_errors(self, capsys):
        rc, out, err = invoke(capsys, ["bijection", "2", "1", "3", "4"])
        assert rc == 1 and out == ""
        rc, out, err = invoke(capsys, ["bijection", "0", "1", "2", "4"])
        assert rc == 1 and out == ""

    # Intervals past 2^20 integers are refused before anything is sorted,
    # not by a MemoryError traceback
    def test_intervals_past_the_size_bound(self, capsys):
        rc, out, err = invoke(capsys, ["bijection", "0", "99999999", "100000000", "199999999"])
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    # Endpoints of 2^64 or more are refused before the Hall check's weight
    # histograms, whose cost grows with the square of their bit length
    def test_endpoints_past_the_bound(self, capsys):
        end = str(2**64)
        rc, out, err = invoke(capsys, ["bijection", "0", "0", end, end])
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "past the bound of 2^64" in err


class TestHypercubicCommand:
    def test_plain(self, capsys):
        rc, out, _ = invoke(capsys, ["hypercubic", "--k", "6"])
        assert rc == 0
        assert out == "k 6\nhypercubic 2|3\n"

    def test_large_k(self, capsys):
        rc, out, _ = invoke(capsys, ["hypercubic", "--k", "1000000000000"])
        assert rc == 0
        assert out.startswith("k 1000000000000\nhypercubic ")

    def test_bad_k(self, capsys):
        rc, out, err = invoke(capsys, ["hypercubic", "--k", "1"])
        assert rc == 1 and out == ""


class TestCounterexampleCommand:
    def test_expected_record_present(self, capsys):
        rc, out, _ = invoke(
            capsys, ["counterexample", "--qmax", "3", "--kmax", "16", "--output", "json"]
        )
        assert rc == 0
        rows = json.loads(out)
        match = [r for r in rows if r["q"] == 3 and r["k"] == 11]
        assert match
        assert {1, 2} <= set(match[0]["non_hypercubic_maximizers"])


class TestHarness:
    def test_unknown_command(self, capsys):
        rc, out, err = invoke(capsys, ["frobnicate"])
        assert rc == 1 and out == "" and err

    def test_missing_required_flag(self, capsys):
        rc, out, err = invoke(capsys, ["fq", "--q", "1"])
        assert rc == 1 and out == ""

    def test_no_command(self, capsys):
        rc, out, err = invoke(capsys, [])
        assert rc == 1 and out == ""

    def test_help_exits_zero(self, capsys):
        rc, out, err = invoke(capsys, ["--help"])
        assert rc == 0
        assert "cubeseg" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["fq", "--q", "2", "--kmax", "8"],
            ["hypercubic", "--k", "12"],
            ["bijection", "0", "3", "8", "11"],
            ["oracle", "--dim", "2", "--k", "3", "--q", "1"],
            ["counterexample", "--qmax", "3", "--kmax", "12"],
        ],
    )
    def test_formats_carry_identical_numbers(self, capsys, argv):
        number_sets = []
        for fmt in ("plain", "json", "csv"):
            rc, out, _ = invoke(capsys, argv + ["--output", fmt])
            assert rc == 0
            number_sets.append(set(re.findall(r"-?\d+", out)))
        assert number_sets[0] == number_sets[1] == number_sets[2]


# Every flag of every subcommand, mostly with valid values, at sizes that
# run in milliseconds; the oracle always gets a small --budget.
_NUMBER = st.one_of(
    st.integers(0, 12),
    st.integers(-3, 12),
    st.sampled_from(["64", str(10**30), "1.5", "x"]),
).map(str)
_FLAGS = {
    "fq": ["--q", "--kmax"],
    "count": ["--dim", "--q", "--input", "--input-format"],
    "optimal": ["--dim", "--q", "--k", "--emit-set", "--input-format"],
    "oracle": ["--dim", "--k", "--q", "--argmax-cap"],
    "bijection": [],
    "hypercubic": ["--k"],
    "counterexample": ["--qmax", "--kmax"],
    "frobnicate": [],
}
_PREFIX = {1: "error: ", 2: "input error: ", 3: "budget exceeded: "}


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


class TestExitContract:
    # Running out of memory, in a command or in rendering its report, is
    # one error line, exit 1 and no report, not a MemoryError traceback
    @pytest.mark.parametrize("where", ["recursion.hypercubic_partitions", "cli._render"])
    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch, where):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(f"cubeseg.{where}", exhausted)
        rc, out, err = invoke(capsys, ["hypercubic", "--k", "6", "--output", "json"])
        assert (rc, out, err) == (1, "", "error: out of memory\n")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), file_bytes=st.binary(max_size=64))
    def test_exit_code_stdout_and_stderr(self, folder, data, file_bytes):
        (folder / "vertices").write_bytes(file_bytes)
        paths = {
            "--input": st.sampled_from([folder / "vertices", folder / "missing"]),
            "--emit-set": st.sampled_from([folder / "emitted", folder / "missing" / "x"]),
            "--input-format": st.sampled_from(["decimal", "binary", "hex"]),
        }
        command = data.draw(st.sampled_from(sorted(_FLAGS)))
        argv = [command]
        if command == "bijection":
            argv += data.draw(st.lists(_NUMBER, min_size=3, max_size=5))
        for flag in _FLAGS[command]:
            if data.draw(st.integers(0, 19)):  # each flag is left out 1 time in 20
                argv += [flag, str(data.draw(paths.get(flag, _NUMBER)))]
        if command == "oracle":
            argv += ["--budget", str(data.draw(st.integers(-3, 2000)))]
        output = data.draw(st.sampled_from([None, "plain", "json", "csv", "xml"]))
        if output:
            argv += ["--output", output]

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
        event(f"exit {rc}")
        assert rc in (0, 1, 2, 3)
        assert (out.getvalue() == "") == (rc != 0)
        if rc:
            assert err.getvalue().startswith(_PREFIX[rc])
            assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1
