"""In-memory span tracer that wraps functions from outside the traced program.

A span is recorded around every call of a wrapped function: its name, its
start and end on a monotonic clock, and the index of the span that was open
when it started. Spans stay in memory until the caller asks for them. The
tracer patches functions in place and puts every original back in
:meth:`Tracer.restore`.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    """Records nested spans and work counts for wrapped functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, outermost]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans and counts; wrapped functions stay wrapped."""
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans.clear()
        self.counts.clear()

    # -- wrapping ------------------------------------------------------------

    def traced(self, name: str, fn, count=None):
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``count(arguments, result)`` may return a mapping of counter names
        to amounts; ``arguments`` is the call's bound argument dict with
        defaults applied.
        """
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self._active[name] == 0
            self._active[name] += 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, self.clock(), 0.0, parent, outermost])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = self.clock()
                self._stack.pop()
                self._active[name] -= 1
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, amount in count(bound.arguments, result).items():
                    self.counts[key] += amount
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, count=None, rebind_prefix=None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a traced wrapper.

        Class attributes keep their descriptor kind (classmethod,
        staticmethod or plain function). With ``rebind_prefix``, every
        loaded module whose name starts with it and that bound the same
        function object under any name gets the wrapper too, so callers that
        imported the function by name are traced as well.
        """
        if isinstance(owner, dict):
            original = owner[attr]
            self._set(owner, attr, self.traced(name, original, count))
            return
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.traced(name, raw.__func__, count))
        else:
            replacement = self.traced(name, raw, count)
        self._set(owner, attr, replacement)
        if rebind_prefix is None or isinstance(owner, type):
            return
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith(rebind_prefix) or module is owner:
                continue
            for alias, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, alias, replacement)

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every original, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def inclusive(self) -> dict[str, float]:
        """Seconds per span name, counting a name nested in itself once."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _, outermost in self.spans:
            if outermost:
                totals[name] += end - start
        return dict(totals)

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer: span durations minus their direct children.

        The layer of a span is its name up to the first dot. Spans of one
        thread never overlap their siblings, so the children's durations are
        the part of the parent's interval they cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            totals[name.split(".", 1)[0]] += (end - start) - children
        return dict(totals)
