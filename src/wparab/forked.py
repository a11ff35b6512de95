"""Work run in a forked child while the caller goes on.

A run forks for two pieces of work (both in ``cli``): solve's
``solution.csv``, and ``flatten`` when a group precedes it. Each child
computes what the caller would have computed inline and returns it; the
caller writes the files, except ``solution.csv``, which its child writes.
The caller reaps every child on every path.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import traceback

from .errors import ToolkitError


class Forked:
    """``work()`` run at once in a forked child, inline where ``os.fork`` is
    missing or fails; ``result()`` reaps it and returns its value or raises
    its exception. The child, niced by ``nice``, pickles that outcome into a
    pipe and leaves through ``os._exit``: it never returns into the caller.
    ``pid`` is None once there is no child left to reap."""

    def __init__(self, work, nice: int = 0):
        self.pid = None
        if hasattr(os, "fork"):
            rfd, wfd = os.pipe()
            try:
                self.pid = os.fork()
            except OSError:  # EAGAIN, ENOMEM: run inline
                os.close(rfd)
                os.close(wfd)
        if self.pid is None:
            self.outcome = self._outcome(work)
        elif self.pid == 0:
            code = 1
            try:
                os.close(rfd)
                os.nice(nice)
                with open(wfd, "wb") as pipe:
                    pickle.dump(self._outcome(work), pipe)
                code = 0
            except BaseException:
                os.write(2, traceback.format_exc().encode())
            finally:
                os._exit(code)
        else:
            os.close(wfd)
            self.pipe = open(rfd, "rb")

    def result(self):
        if self.pid is not None:
            with self.pipe:  # drained before the wait, so no outcome blocks
                data = self.pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = None
            self.outcome = pickle.loads(data) if code == 0 else (False, ToolkitError(
                f"forked child exited with code {code} before sending its result"))
        ok, value = self.outcome
        if not ok:
            raise value
        return value

    @staticmethod
    def reap(children) -> None:
        """Reap every child in ``children``; outcomes not yet asked for
        are dropped."""
        for child in children:
            with contextlib.suppress(Exception):
                child.result()

    @staticmethod
    def _outcome(work) -> tuple[bool, object]:
        try:
            return True, work()
        except Exception as exc:
            return False, exc
