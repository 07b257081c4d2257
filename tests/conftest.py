"""Shared fixtures."""

import resource
import signal

import pytest


@pytest.fixture
def disk_full_beyond():
    """``disk_full_beyond(n)``: until the test ends, a write that would take
    any file past ``n`` bytes fails part-way with ``OSError`` (EFBIG), as on
    a full disk."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    yield lambda n: resource.setrlimit(resource.RLIMIT_FSIZE, (n, hard))
    resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    signal.signal(signal.SIGXFSZ, handler)
