"""Span recording for traced benchmark runs.

A :class:`Tracer` replaces a function on the name its caller looks up (a
module attribute, or a catalog system's ``field``) with a wrapper that
records one span per call: name, start, end and the enclosing span.  Spans
and counters stay in memory and are written out once, by :meth:`Tracer.dump`.

Self time is a span's duration minus the time its child spans cover.  Calls
run on one thread, so children never overlap and their durations simply add
up inside the parent.

The vector field is called four times per RK4 step, hundreds of thousands of
times per run, so its spans are aggregated (calls, rows, time charged to the
enclosing span) instead of stored one by one.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # (name, start, end, parent index or None)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list = []  # [span index, time covered by children]
        self._patches: list = []

    def wrap(self, name, fn, on_result=None, aggregate=False):
        """Return ``fn`` wrapped in a span.

        ``name`` is a string or a function of the call's arguments;
        ``on_result(counts, args, kwargs, result)`` adds counters at the same
        boundary.  An ``aggregate`` span must be a leaf: it is counted and
        timed but not stored.
        """
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        clock = time.perf_counter

        if aggregate:
            def traced(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                dur = clock() - start
                calls[name] += 1
                self_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                if on_result is not None:
                    on_result(self.counts, args, kwargs, result)
                return result
        else:
            def traced(*args, **kwargs):
                label = name(*args, **kwargs) if callable(name) else name
                frame = [len(spans), 0.0]
                parent = stack[-1][0] if stack else None
                spans.append(None)
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[frame[0]] = (label, start, end, parent)
                    dur = end - start
                    calls[label] += 1
                    self_s[label] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                if on_result is not None:
                    on_result(self.counts, args, kwargs, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name, on_result=None, aggregate=False) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result, aggregate))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        t0 = min((s[1] for s in self.spans if s is not None), default=0.0)
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                label, start, end, parent = span
                fh.write(json.dumps({
                    "run": self.run_id, "id": index, "name": label,
                    "start": start - t0, "end": end - t0, "parent": parent,
                }) + "\n")
