import pytest

from mutants import EQUIVALENT, MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS)
def test_each_mutant_text_occurs_once_and_names_test_files(mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.old != mutant.new
    assert mutant.tests and all((ROOT / t).is_file() for t in mutant.tests)


@pytest.mark.parametrize("mutant", EQUIVALENT)
def test_each_equivalent_mutant_text_occurs_once_and_has_a_reason(mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.old != mutant.new and mutant.reason
