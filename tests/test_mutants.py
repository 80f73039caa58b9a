"""The mutation catalogue (mutants.py) stays applicable: running it
takes a test run per mutant, so tier-1 checks only that each mutant's
old text occurs once and that the tests it names exist."""

import re

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_once_and_names_tests_that_exist(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    for test in mutant.kills:
        path, function = re.fullmatch(r"(.+)::(\w+)(\[.*\])?",
                                      test).group(1, 2)
        source = (ROOT / path).read_text(encoding="utf-8")
        assert f"\ndef {function}(" in source, test
