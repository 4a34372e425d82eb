"""The mutant registry of ``tests/mutants.py`` still matches the source, and
a run past its bounds is an error."""

import mutants
import pytest

from mutants import MUTANTS, ROOT


def test_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_each_old_text_occurs_once_and_each_test_file_exists(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert all((ROOT / test.split("::")[0]).is_file() for test in mutant.tests)


def test_a_run_past_its_timeout_is_an_error(monkeypatch):
    monkeypatch.setattr(mutants, "TIMEOUT_S", 0.01)
    outcome, _ = mutants.run(MUTANTS[0])
    assert outcome == "error: still running after 0.01 s"


def test_a_run_out_of_its_address_space_is_an_error(monkeypatch):
    # An untouched 1 GiB array: only the cap makes it fail.
    monkeypatch.setattr(mutants, "MEMORY_BYTES", 1 << 30)
    grab = mutants.Mutant("grab", "src/dlnflow/integrate.py", "_SAFETY = 0.9\n",
                          "_SAFETY = 0.9\nnp.empty(1 << 27)\n", MUTANTS[0].tests)
    outcome, _ = mutants.run(grab)
    assert outcome == "error: out of its 1 GiB of address space"
