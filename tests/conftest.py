import signal

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "suite", max_examples=50, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def fail_if_hung():
    """Fail, rather than hang, a test still running after 30 s (SIGALRM, main thread)."""
    def expire(signum, frame):
        pytest.fail("still running after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
