"""In-memory spans recorded by the benchmark around its calls into each layer.

Spans are kept in a list while the run lasts and written out once at
exit, so recording costs a ``perf_counter_ns`` and a ``thread_time_ns``
pair and an append.  A disabled tracer still times the call (the
benchmark needs the duration either way) but records nothing.
:func:`span_cost_s` measures what one recorded span costs, which gives
the tracing overhead of a traced run.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    """One timed call: ``end_ns - start_ns`` is its wall duration and
    ``cpu_end_ns - cpu_start_ns`` the CPU time of the calling thread."""

    __slots__ = (
        "span_id", "parent_id", "name", "start_ns", "end_ns",
        "cpu_start_ns", "cpu_end_ns", "attrs",
    )

    def __init__(self, span_id: int, parent_id: Optional[int], name: str) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ns = 0
        self.end_ns = 0
        self.cpu_start_ns = 0
        self.cpu_end_ns = 0
        self.attrs: Dict[str, object] = {}

    @property
    def cpu_seconds(self) -> float:
        return (self.cpu_end_ns - self.cpu_start_ns) / 1e9

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "cpu_ns": self.cpu_end_ns - self.cpu_start_ns,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans when ``enabled``; a span's parent is the innermost open one."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        parent = self._open[-1].span_id if self._open else None
        record = Span(next(self._ids), parent, name)
        record.attrs.update(attrs)
        self._open.append(record)
        record.start_ns = time.perf_counter_ns()
        record.cpu_start_ns = time.thread_time_ns()
        try:
            yield record
        finally:
            record.cpu_end_ns = time.thread_time_ns()
            record.end_ns = time.perf_counter_ns()
            self._open.pop()
            if self.enabled:
                self.spans.append(record)

    def record(
        self, name: str, start_ns: int, end_ns: int, **attrs: object
    ) -> None:
        """Add an already-timed span with wall times only."""
        if not self.enabled:
            return
        record = Span(next(self._ids), None, name)
        record.start_ns = start_ns
        record.end_ns = end_ns
        record.attrs.update(attrs)
        self.spans.append(record)

    def self_cpu_seconds(self, span: Span) -> float:
        """``span``'s CPU time minus the part its recorded children cover."""
        children = sum(
            child.cpu_end_ns - child.cpu_start_ns
            for child in self.spans
            if child.parent_id == span.span_id
        )
        return (span.cpu_end_ns - span.cpu_start_ns - children) / 1e9

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_dict() for span in self.spans], handle)


def span_cost_s(count: int = 51, evict_mb: int = 64) -> float:
    """Median CPU seconds of one recorded span entered with cold caches.

    In a pipeline every span boundary follows a stage whose working set
    has evicted the tracer's code and data from the caches, so each span
    here follows a write of ``evict_mb`` MB.
    """
    tracer = Tracer(True)
    buffer = bytearray(evict_mb << 20)
    pattern = b"\x01" * len(buffer)
    costs = []
    for _ in range(count):
        buffer[:] = pattern
        started = time.thread_time_ns()
        with tracer.span("empty"):
            pass
        costs.append(time.thread_time_ns() - started)
    return sorted(costs)[count // 2] / 1e9
