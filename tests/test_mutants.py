"""The mutation list in mutation/mutants.py stays applicable: each entry's
old text occurs exactly once in its file, so mutation/run.py mutates the
code the entry names."""

import importlib.util

import pytest

from conftest import ROOT

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "mutation" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_old_text_occurs_once(mutant):
    text = (ROOT / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.reason


def test_names_are_unique():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)
