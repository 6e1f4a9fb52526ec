"""The committed mutants still apply: tests/mutants.py runs them (outside
tier-1); this only checks that each one's old text occurs once and its tests
exist, so a refactor that moves a guard carries its mutant along."""

import pytest

import mutants


@pytest.mark.parametrize("k", range(len(mutants.MUTANTS)))
def test_mutant_applies_once(k):
    assert mutants.misplaced(mutants.MUTANTS[k]) is None


def test_at_least_eight_guards_have_a_mutant():
    assert len({(m.file, m.old) for m in mutants.MUTANTS}) >= 8
