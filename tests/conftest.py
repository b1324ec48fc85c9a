"""Fixtures shared by every test module."""

import pytest

from conformal_hodge import mapping


@pytest.fixture(autouse=True)
def fresh_certified_maps():
    """Start each test with an empty store of certified maps.

    Certified maps of the same coefficients share their operators for the
    life of the process (mapping._certified).  Emptying the store keeps a
    test that counts certificate work from missing it, and a test that
    injects a fault into an operator from leaving the faulty factor behind.
    """
    mapping._certified.cache_clear()
