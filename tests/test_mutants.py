"""The mutation registry of tests/mutants.py stays in step with src/."""

import ast

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_applies_once_and_names_existing_tests(name):
    mutant = MUTANTS[name]
    text = (ROOT / "src" / "edgeideals" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    # a mutant is killed by its tests, never by a syntax error
    ast.parse(text.replace(mutant.old, mutant.new))
    for node in mutant.tests:
        path, func = node.split("::")
        assert f"\ndef {func}(" in (ROOT / path).read_text(), node
