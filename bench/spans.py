"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span and operation id.  Spans
are kept in a list and written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children; children
never overlap because the benchmark is single-threaded.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans around the benchmark's calls into the package."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> list[float]:
        """Self time of every span, in recording order."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child_time)]

    def self_times_by_name(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for span, own in zip(self.spans, self.self_times()):
            out[span.name].append(own)
        return dict(out)

    def root_durations(self, first: int = 0) -> dict[str, float]:
        """Summed duration of each root span name, from span ``first`` on."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans[first:]:
            if span.parent is None:
                out[span.name] += span.duration
        return dict(out)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span, own in zip(self.spans, self.self_times()):
                out.write(json.dumps({**asdict(span), "self": own}) + "\n")


class NullTracer:
    """Same interface as Tracer, recording nothing: the untraced path."""

    op = 0

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
