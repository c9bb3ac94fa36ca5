"""Keeps the mutation table in ``tests/mutants.py`` from going stale."""

from pathlib import Path

import pytest

from mutants import MUTANTS, SRC

TESTS = Path(__file__).resolve().parent


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    text = (SRC / "morrey_lab" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_nodes_name_existing_tests(mutant):
    assert mutant.nodes
    for node in mutant.nodes:
        path, *names = node.split("::")
        source = (TESTS.parent / path).read_text()
        assert names and all(f"def {name}(" in source or f"class {name}:" in source for name in names), node
