"""Shared test set-up."""

import pytest

from qrepeater import analysis


@pytest.fixture(autouse=True)
def fresh_walk():
    """Each test starts with no kept walk, so a test that counts builds
    does not depend on which config the test before it read."""
    analysis._walk.cache_clear()
