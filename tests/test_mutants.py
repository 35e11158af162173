"""The mutation registry of tests/mutants.py stays in step with src/."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_applies_once_and_names_existing_tests(name):
    mutant = MUTANTS[name]
    text = (ROOT / "src" / "edgeideals" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    for node in mutant.tests:
        path, func = node.split("::")
        assert f"\ndef {func}(" in (ROOT / path).read_text(), node
