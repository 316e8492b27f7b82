import contextlib
import signal

import pytest


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Raise TimeoutError in the block once `seconds` of wall time have passed.

    The alarm is SIGALRM from signal.setitimer, so the block must run in the
    main thread.  On exit the timer is cleared and the previous handler is
    restored.
    """
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """The _time_limit context manager: `with time_limit(5): ...` fails a hang in 5 s."""
    return _time_limit
