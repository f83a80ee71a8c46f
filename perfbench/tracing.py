"""In-memory spans recorded around calls into the library's layers.

The traced run wraps public functions of ``eqprice`` from outside: module
attributes are swapped for recording wrappers inside a ``patched(...)``
block, so the library itself is unchanged.  Each span holds a name, its
start and end (``time.perf_counter`` seconds), the id of the span that was
open when it began (-1 at the top) and the group label the benchmark set
before the call (used for per-size breakdowns).  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    group: str


@dataclass(frozen=True)
class LayerTotal:
    calls: int
    total_s: float
    self_s: float


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.group = ""
        self._open: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        spans, open_ids, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = open_ids[-1] if open_ids else -1
            open_ids.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_ids.pop()
                spans.append(Span(span_id, name, start, end, parent, self.group))

        return traced

    def layer_totals(self) -> dict[tuple[str, str], LayerTotal]:
        """Calls, inclusive time and self time per (group, span name)."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        calls: Counter[tuple[str, str]] = Counter()
        total: defaultdict[tuple[str, str], float] = defaultdict(float)
        own: defaultdict[tuple[str, str], float] = defaultdict(float)
        for span in self.spans:
            key = (span.group, span.name)
            duration = span.end - span.start
            calls[key] += 1
            total[key] += duration
            own[key] += duration - child_time[span.id]
        return {key: LayerTotal(calls[key], total[key], own[key]) for key in calls}


@contextmanager
def patched(replacements: dict):
    """Replace module attributes for the duration of the block.

    ``replacements`` maps ``(module, attribute)`` to a function that takes
    the original attribute and returns its stand-in.
    """
    saved = []
    try:
        for (module, attr), make in replacements.items():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
