"""The mutation harness's mutants still apply to ``src/``.

``tests/mutants.py`` runs tier-1 on each mutant to show which tests catch
it; a mutant whose text an edit of ``src/`` removed or duplicated would
silently drop out of that gate, so each must still occur exactly once and
its mutated source must still compile.
"""

import pytest

from mutants import MUTANTS, ROOT, failed_tests, mutate, source_path


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once_and_compiles(mutant):
    path = source_path(ROOT, mutant)
    compile(mutate(path.read_text(), mutant), str(path), "exec")


def test_names_unique():
    # The kill map is keyed by name.
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def test_a_cut_off_run_names_its_failures():
    # What -v has printed when the timeout stops a run: the last test had
    # not finished, and ids may hold spaces.
    output = (
        "collecting ... collected 4 items\n"
        "\n"
        "tests/test_a.py::test_one PASSED                                          [ 25%]\n"
        "tests/test_b.py::test_bytes[simulate --l0-km 5000] FAILED                 [ 50%]\n"
        "tests/test_b.py::TestFixture::test_setup ERROR                            [ 75%]\n"
        "tests/test_c.py::test_stalled[0] "
    )
    assert failed_tests(output) == [
        "tests/test_b.py::TestFixture::test_setup",
        "tests/test_b.py::test_bytes[simulate --l0-km 5000]",
    ]


def test_the_summary_adds_only_a_module_that_failed_to_collect():
    summary = (
        "=========================== short test summary info ============================\n"
        "FAILED tests/test_b.py::test_bytes[a - b] - AssertionError: assert 1 == 2\n"
        "ERROR tests/test_b.py::TestFixture::test_setup - RuntimeError: fixture\n"
        "ERROR tests/test_d.py\n"
    )
    assert failed_tests(summary) == ["tests/test_d.py"]
