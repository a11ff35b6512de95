"""Guards for tests whose runs can fork (``cli.Forked``).

Every test gets them: a child that came back into a test ends at once, and
no test may leave a child process behind, running or unreaped.
"""
import os

import pytest


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def child_never_returns():
    """A forked child that came back into a test ends here, so it cannot run
    the rest of the suite (and fork again); the parent sees it fail."""
    pid = os.getpid()
    yield
    if os.getpid() != pid:
        os._exit(70)
    assert_no_child()
