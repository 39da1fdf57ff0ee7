import importlib
import signal
import sys
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


@pytest.fixture
def calls(monkeypatch):
    """``calls("lattice.hilbert_basis")`` wraps that conealg function in every
    conealg module that holds it, as the benchmark tracer does, and returns
    the list to which each call's arguments are appended (positional, then
    keyword items)."""

    def watch(qualified: str) -> list:
        module_name, name = qualified.split(".")
        original = getattr(importlib.import_module(f"conealg.{module_name}"), name)
        seen = []

        def counted(*args, **kwargs):
            seen.append(args + tuple(kwargs.items()))
            return original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key == "conealg" or key.startswith("conealg."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return seen

    return watch
