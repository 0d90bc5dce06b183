"""In-memory spans and counts for the traced run.

A span has a name, a start, an end, a parent and the id of the operation
it belongs to.  Spans stay in memory until the run ends; ``self_times``
turns them into per-layer self times.  With tracing off, ``Off`` stands in
and records nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Off:
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def begin_op(self):
        pass

    def count(self, name: str, n):
        pass


class Tracer:
    def __init__(self):
        self.spans: list = []  # (id, parent, op, name, start, end)
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = 0

    def begin_op(self):
        self._op += 1

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self._op, name, start, end)

    def count(self, name: str, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name: a span's time minus
        the time its children cover."""
        child_time: dict[int, float] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for sid, _, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, name, start, end in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                         "start": start, "end": end}) + "\n")
