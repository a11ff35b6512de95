"""Guards for tests whose runs can fork (``forked.Forked``), and the traced
runs of the golden configs.

Every test gets the guards: a child that came back into a test ends at
once, and no test may leave a child process behind, running or unreaped.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


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


@pytest.fixture(scope="session")
def traced_golden_runs(tmp_path_factory):
    """One ``wparab all`` run of each golden config, traced by
    ``reachability.record`` in a fresh interpreter with ``os.fork`` removed
    (every group runs inline): the directory that holds each run's output
    under the config's name, and the record's exit codes and unreached
    statements."""
    root = tmp_path_factory.mktemp("traced")
    proc = subprocess.run(
        [sys.executable, "-c", f"import reachability; reachability.record({str(root)!r})"],
        cwd=TESTS, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return root, json.loads((root / "traced.json").read_text())
