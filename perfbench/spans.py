"""In-memory spans around the benchmark's calls into stabkit's layers.

A span is (id, name, start, end, parent, op): `name` is the layer call
("<module>.<function>"), `parent` the id of the enclosing span and `op` the
id shared by every span of one benchmark operation.  Spans stay in memory
and are written out once, by run.py, after the run.  With tracing off,
`Tracer.call` only calls the function, so untraced timings carry no
bookkeeping beyond one Python call.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        # name of the last layer call started, to blame an exception on
        self.last_call = "benchmark"

    def begin_op(self) -> None:
        """Start a new operation: later spans share its id."""
        self._op += 1
        self.last_call = "benchmark"

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), recorded as a span named `name` when tracing."""
        self.last_call = name
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, name, 0.0, 0.0, parent, self._op]
        self.spans.append(record)
        self._stack.append(sid)
        record[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        """Add to an exact size counter (kept with tracing on or off)."""
        self.counts[name] += int(value)


def layer_totals(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Summed self time and call count per span name.

    Self time is a span's duration minus the durations of its direct
    children, so nested layer calls are not counted twice.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, name, start, end, _, _ in spans:
        busy[name] += (end - start) - child_time[sid]
        calls[name] += 1
    return dict(busy), dict(calls)
