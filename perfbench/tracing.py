"""In-memory spans and garbage-collector accounting for the benchmark.

A span is ``[name, start, end, parent, op]``: the public call it wraps,
``time.perf_counter()`` at entry and exit, the index of the enclosing span
(or None) and the id of the benchmark operation it belongs to. Spans stay
in memory while the workload runs and are written out once at the end.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def _begin(self, name: str, op) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, op])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, op):
        index = self._begin(name, op)
        try:
            yield index
        finally:
            self._end(index)

    def call(self, name: str, op, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        index = self._begin(name, op)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(index)

    def record(self, name: str, op, seconds: float) -> None:
        """Add a span measured elsewhere (it has no children)."""
        start = time.perf_counter()
        parent = self._open[-1] if self._open else None
        self.spans.append([name, start, start + seconds, parent, op])

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self, name: str, children: frozenset) -> list[float]:
        """Duration of each ``name`` span minus its direct children whose
        names are in ``children``."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s[3] is not None and s[0] in children:
                covered[s[3]] = covered.get(s[3], 0.0) + s[2] - s[1]
        return [s[2] - s[1] - covered.get(i, 0.0)
                for i, s in enumerate(self.spans) if s[0] == name]

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


class FullCollections:
    """Records (start, end) of each full (generation 2) collection through
    ``gc.callbacks`` while active; the collector itself stays enabled."""

    def __init__(self) -> None:
        self.events: list[tuple[float, float]] = []
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.events.append((self._started, time.perf_counter()))

    def __enter__(self) -> "FullCollections":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)
