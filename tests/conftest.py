"""Shared fixtures."""

import pytest

from modk3 import catalog


@pytest.fixture(scope="session")
def full_catalog():
    """catalog.full_catalog() built once per session; the records are
    immutable named tuples, and the tuple keeps a test from reordering
    them for the next one."""
    return tuple(catalog.full_catalog())
