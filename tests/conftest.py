"""Shared fixtures."""

from dataclasses import replace

import pytest

from modk3 import catalog


@pytest.fixture(scope="session")
def full_catalog():
    """catalog.full_catalog() built once per session; each call of the
    returned function hands out fresh record copies."""
    records = catalog.full_catalog()
    return lambda: [replace(rec) for rec in records]
