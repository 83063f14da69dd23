"""In-memory spans recorded by the benchmark around its calls into lhvlab.

A span has a name, a start, an end, the index of its parent span and the
id of the unit it belongs to.  Spans are kept in memory and written out
once, when the run ends.  With tracing off, ``span`` returns a shared
no-op context, so the untraced run pays one attribute lookup per call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        # [name, start, end, parent index or -1, unit id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unit: Optional[int] = None

    def span(self, name: str):
        return self._span(name) if self.enabled else _NO_SPAN

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, parent, self.unit]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def self_times(self, scale: Callable[[float, float], float]) -> dict[str, list[float]]:
        """Per span name, the self time of each occurrence.

        Self time is the span's duration minus the durations of its
        direct children; children never outlive their parent here, so
        that is the part of the interval no child span covers.  Each
        self time is multiplied by ``scale(start, end)`` of its span.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name].append((end - start - child_time[i]) * scale(start, end))
        return out

    def write(self, path) -> None:
        with open(path, "w") as fp:
            for name, start, end, parent, unit in self.spans:
                fp.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit}) + "\n")
