"""Fixtures shared by the test modules."""

import pytest

from degenpde import analytic


@pytest.fixture
def fresh_compiles(monkeypatch):
    """An empty process memo of compiled closures for one test, so a
    lambdify count sees what a fresh object compiles, not what earlier
    tests left behind; the memo is restored afterwards."""
    monkeypatch.setattr(analytic, "_COMPILED", {})
