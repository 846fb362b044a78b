import pytest

from couplemc import sde_engine


@pytest.fixture
def threaded(monkeypatch):
    """Every map and terminal scan of two or more rows cut into row blocks
    that three threads share, whatever CPUs the machine has."""
    monkeypatch.setattr(sde_engine, "_SPLIT_MIN", 2)
    monkeypatch.setattr(sde_engine.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
