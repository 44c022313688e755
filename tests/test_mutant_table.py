"""The mutant table of ``tests/mutants.py`` against the tree.

The gate itself takes a minute; this check starts no pytest process, so
a change that moves code under a mutant, or renames a test that a mutant
names, fails here first.
"""

import mutants
from mutants import Mutant


def test_table_matches_the_tree():
    assert mutants.check_table() == []


def test_table_faults_are_reported(monkeypatch):
    named = "tests/test_package.py::TestSurface::test_all_joins_the_modules"

    def mutant(name, path="__init__.py", snippet=", *weights.__all__", must_fail=(named,)):
        return Mutant(name, path, snippet, "", must_fail)

    table = (
        mutant("twice"),
        mutant("twice"),
        mutant("no snippet", snippet="no such text"),
        mutant("many snippets", snippet="from ."),
        mutant("no file", path="no_such_module.py"),
        mutant("no test", must_fail=()),
        mutant("no test file", must_fail=("tests/test_none.py::test_x",)),
        mutant("no class", must_fail=("tests/test_package.py::TestX::test_x",)),
        # defined in a class, not at module level
        mutant("wrong scope", must_fail=(named.replace("TestSurface::", ""),)),
    )
    monkeypatch.setattr(mutants, "MUTANTS", table)
    assert mutants.check_table() == [
        "twice: 2 mutants have this name",
        "no snippet: snippet occurs 0 times in __init__.py",
        "many snippets: snippet occurs 6 times in __init__.py",
        "no file: snippet occurs 0 times in no_such_module.py",
        "no test: names no test",
        "no test file: tests/test_none.py is missing or does not define test_x",
        "no class: tests/test_package.py is missing or does not define TestX::test_x",
        "wrong scope: tests/test_package.py is missing or does not define"
        " test_all_joins_the_modules",
    ]
