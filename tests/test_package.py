"""The package surface, the vertex-file format check and the README example."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

import cubeseg
from cubeseg import bijection, cube, oracle, recursion, weights

MODULES = (bijection, cube, oracle, recursion, weights)
README = Path(__file__).resolve().parent.parent / "README.md"
FORMAT_ERROR = "format must be 'decimal' or 'binary', got 'hex'"


class TestSurface:
    def test_all_joins_the_modules(self):
        joined = [name for module in MODULES for name in module.__all__]
        assert cubeseg.__all__ == joined
        assert len(set(joined)) == len(joined)
        for module in MODULES:
            for name in module.__all__:
                assert getattr(cubeseg, name) is getattr(module, name), name

    def test_interval_histogram_is_exported(self):
        assert cubeseg.interval_histogram is weights.interval_histogram
        assert "interval_histogram" in cubeseg.__all__


class TestFormatCheck:
    def test_parse_refuses_unknown_format(self):
        with pytest.raises(ValueError, match=re.escape(FORMAT_ERROR)):
            cube.parse_vertex_set(["0"], 2, "hex")

    def test_render_refuses_unknown_format(self):
        with pytest.raises(ValueError, match=re.escape(FORMAT_ERROR)):
            cube.render_vertex_lines(cube.initial_segment(2, 2), "hex")

    def test_save_refuses_unknown_format_before_opening(self, tmp_path):
        path = tmp_path / "seg.txt"
        with pytest.raises(ValueError, match=re.escape(FORMAT_ERROR)):
            cube.save_vertex_set(cube.initial_segment(2, 2), path, "hex")
        assert not path.exists()


def _readme_checks():
    """Run the README's python block; returns (source, value, stated) for
    each expression line, whose trailing comment states its value as a
    Python literal."""
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checks = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr) and stmt.lineno in comments:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            stated = ast.literal_eval(comments[stmt.lineno])
            checks.append((ast.unparse(stmt), value, stated))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    return checks


def test_readme_example():
    checks = _readme_checks()
    for source, value, stated in checks:
        assert (type(value), value) == (type(stated), stated), source
    assert [stated for _, _, stated in checks] == [
        7,
        7,
        True,
        ((0, 8), (1, 9), (2, 10), (3, 11)),
        True,
        (1, 2, 3, 4, 5),
        {3, 4, 5},
    ]
