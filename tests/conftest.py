"""Checks that apply to every test."""

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_stays_enabled():
    """Fail a test that leaves Python's cyclic garbage collector disabled,
    and enable it again for the tests after it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
