"""The mutant registry of ``tests/mutants.py`` still matches the source."""

import pytest

from mutants import MUTANTS, ROOT


def test_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_each_old_text_occurs_once_and_each_test_file_exists(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert all((ROOT / test.split("::")[0]).is_file() for test in mutant.tests)
