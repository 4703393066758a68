"""The mutation harness's mutants still apply to ``src/``.

``tests/mutants.py`` runs tier-1 on each mutant to show which tests catch
it; a mutant whose text an edit of ``src/`` removed or duplicated would
silently drop out of that gate, so each must still occur exactly once and
its mutated source must still compile.
"""

import pytest

from mutants import MUTANTS, ROOT, mutate, source_path


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once_and_compiles(mutant):
    path = source_path(ROOT, mutant)
    compile(mutate(path.read_text(), mutant), str(path), "exec")


def test_names_unique():
    # The kill map is keyed by name.
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
