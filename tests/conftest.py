"""Shared fixtures."""

import pytest

import helpers


@pytest.fixture(scope="session")
def full_catalog():
    """helpers.full_catalog() built once per session; the records are
    immutable named tuples, and the tuple keeps a test from reordering
    them for the next one."""
    return tuple(helpers.full_catalog())
