"""Span tracing of morsepow from outside the library.

The tracer replaces attributes of the library's modules and classes with
timing wrappers, and restores them on ``uninstall``.  Functions are
patched in the namespace that calls them: ``cli`` binds the verifiers by
name, and ``resolution`` looks ``strand_degrees`` up as a global.

Every wrapped call pushes a frame.  When it returns, its duration is
added to its name's total and to its parent frame's child time; its self
time is the duration minus the time its children cover.  Calls of coarse
functions are also kept as spans (id, name, start, end, parent, op, self
time) in memory.  Hot functions, called per face or per cell, are only
aggregated, so a traced op does not allocate one record per face.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.self_totals: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def patch(self, owner, attr, name, hot=False, count=None):
        """Wrap ``owner.attr``; skipped when the attribute does not exist.

        ``name`` is a span name, or a callable of (args, kwargs) giving
        one.  ``count(result, args, kwargs)`` returns counter increments.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        call = self._call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return call(name, hot, count, original, args, kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _call(self, name, hot, count, fn, args, kwargs):
        if not isinstance(name, str):
            name = name(args, kwargs)
        stack = self._stack
        parent = stack[-1] if stack else None
        parent_id = parent[1] if parent else None
        if hot:
            frame = [0.0, parent_id]
        else:
            frame = [0.0, self._next_id]
            self._next_id += 1
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[0] += duration
            self.totals[name] += duration
            self.self_totals[name] += duration - frame[0]
            self.calls[name] += 1
            if not hot:
                self.spans.append(
                    (frame[1], name, start, end, parent_id, self.op, duration - frame[0])
                )
        if count is not None:
            for key, value in count(result, args, kwargs).items():
                self.counts[key] += value
        return result

    def to_json(self) -> dict:
        """The recorded spans and the per-name aggregates."""
        fields = ("id", "name", "start", "end", "parent", "op", "self")
        return {
            "spans": [dict(zip(fields, s)) for s in sorted(self.spans)],
            "aggregates": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.totals[name],
                    "self_s": self.self_totals[name],
                }
                for name in sorted(self.totals)
            },
            "counts": dict(sorted(self.counts.items())),
        }
