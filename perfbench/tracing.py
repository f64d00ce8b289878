"""In-memory spans recorded around the public calls a pass makes.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1; all spans of one pass share its pass id.  Spans stay
in memory until the pass ends and are then written out as JSON lines.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from time import perf_counter

_NO_SPAN = nullcontext()


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    def span(self, name: str):
        return _NO_SPAN


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self) -> dict[str, dict]:
        """Per span name: call count, total self time and each call's duration."""
        out: dict[str, dict] = {}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["durations"].append(end - start)
        return out

    def write(self, path: str) -> None:
        with open(path, "a") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"pass": self.pass_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, perf_counter(), 0.0, t._open[-1] if t._open else -1])
        t._open.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t._open.pop()
        return False
