"""In-memory span recorder for the traced benchmark run.

A span is (id, name, start_ns, end_ns, parent_id, root_id, calls): the root
id groups the spans of one benchmark operation, and `calls` says how many
calls of the named layer one span covers, so a replay loop over many small
kernel calls is one span. Spans are kept in memory; `as_dict` gives them to
the caller to write out once, at the end of the run. A disabled tracer
records nothing, which is how the untraced run measures end-to-end metrics.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, calls: int = 1):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[self._stack[0]][0] if self._stack else sid
        record = [sid, name, perf_counter_ns(), None, parent, root, calls]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = perf_counter_ns()

    def per_call_s(self, name: str) -> list[float]:
        """Duration per covered call, in seconds, of every span with this name."""
        return [(end - start) / 1e9 / calls
                for _, span_name, start, end, _, _, calls in self.spans
                if span_name == name and end is not None]

    def median_s(self, name: str) -> float:
        values = self.per_call_s(name)
        if not values:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(values)

    def self_times_s(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children's."""
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None and end is not None:
                child_ns[parent] += end - start
        totals: dict[str, float] = {}
        for sid, name, start, end, _, _, _ in self.spans:
            if end is not None:
                totals[name] = totals.get(name, 0.0) + (end - start - child_ns[sid]) / 1e9
        return totals

    def as_dict(self) -> dict:
        return {"span_fields": ["id", "name", "start_ns", "end_ns", "parent", "root", "calls"],
                "spans": self.spans, "self_time_s": self.self_times_s()}
