import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` fails the test with TimeoutError if the
    block is still running after that many seconds of wall-clock time."""

    @contextmanager
    def within(seconds: float):
        def expire(*_):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
