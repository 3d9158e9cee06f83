"""Benchmark-side span recorder.

Spans are recorded by the benchmark's own code around its calls into each
layer (nothing under ``src/`` is instrumented): a name, start and end on
the ``perf_counter`` timeline, the span that caused it, and the id of the
op it belongs to.  They are kept in memory and written as JSON lines when
the run ends.  A span's *self time* is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass(slots=True)
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    @contextmanager
    def span(self, name: str, op: str = "") -> Iterator[Span]:
        stack = getattr(self._stack, "open", None)
        if stack is None:
            stack = self._stack.open = []
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(
                id=len(self.spans),
                name=name,
                op=op or (parent.op if parent else ""),
                parent=parent.id if parent else None,
                start=time.perf_counter(),
            )
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, op: str, start: float, end: float) -> None:
        """Record a span whose endpoints were stamped elsewhere (an open-loop
        request is due on one thread and completes on another)."""
        with self._lock:
            self.spans.append(
                Span(len(self.spans), name, op, None, start, end)
            )

    def self_times(self) -> dict[int, float]:
        """span id -> duration minus the time covered by its children."""
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def child_coverage(self, name: str) -> float:
        """Share of the ``name`` spans' total time that their children
        cover (1.0 = the children account for all of it)."""
        total = sum(s.duration for s in self.spans if s.name == name)
        if total <= 0:
            return 0.0
        ids = {s.id for s in self.spans if s.name == name}
        covered = sum(s.duration for s in self.spans if s.parent in ids)
        return covered / total

    def self_ms_by_name(self) -> dict[str, float]:
        """span name -> mean self time in milliseconds."""
        selfs = self.self_times()
        sums: dict[str, list[float]] = {}
        for s in self.spans:
            sums.setdefault(s.name, []).append(selfs[s.id])
        return {k: 1e3 * sum(v) / len(v) for k, v in sorted(sums.items())}

    def write_jsonl(self, path: str) -> int:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "op": s.op,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "self": selfs[s.id],
                        }
                    )
                    + "\n"
                )
        return len(self.spans)
