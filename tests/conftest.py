import pytest

from powerbet import oracle


@pytest.fixture(autouse=True)
def no_stream_drawn(monkeypatch):
    """Start every test with the Monte Carlo stream slot empty, so no test
    reads counts another test drew."""
    monkeypatch.setattr(oracle, "_drawn", (None, None))
