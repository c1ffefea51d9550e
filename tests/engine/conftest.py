"""Shared fixtures of the engine tests."""

import sys

import pytest

from repro.io.logging_utils import get_logger


class _CurrentStderr:
    """Writes to whatever ``sys.stderr`` is at each write."""

    def write(self, text):
        return sys.stderr.write(text)

    def flush(self):
        sys.stderr.flush()


@pytest.fixture()
def worker_log(capfd, monkeypatch):
    """``capfd`` that also sees the engine loggers' lines, from this
    process and from the workers it forks: a logger's handler otherwise
    keeps the ``sys.stderr`` of the test that first built it."""
    for name in ("repro.engine.mp", "repro.engine.async_mp"):
        for handler in get_logger(name).handlers:
            monkeypatch.setattr(handler, "stream", _CurrentStderr())
    return capfd
