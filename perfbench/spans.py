"""In-memory spans for the traced benchmark run, and the statistics over them.

A span records one call into a gibbslab layer made from the benchmark's own
code: its name, start and end (``time.perf_counter_ns``), the span open
around it and the operation it belongs to.  Spans stay in memory and are
written out once the run ends, so recording costs no I/O while measuring.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import asdict, dataclass

# a percentile is reported as the tail when at least this many samples lie beyond it
TAIL_MARGIN = 10


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None


class Tracer:
    """Collects spans; ``op`` tags every span opened until it is reassigned."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._open: list[int] = []

    def span(self, name: str) -> "_Scope":
        return _Scope(self, name)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end_ns - span.start_ns
        return [s.end_ns - s.start_ns - c for s, c in zip(self.spans, covered)]

    def self_seconds_by_name(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for span, self_time in zip(self.spans, self.self_ns()):
            out.setdefault(span.name, []).append(self_time / 1e9)
        return out

    def write(self, path) -> None:
        """One JSON object per line: the span fields plus its self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for span, self_time in zip(self.spans, self.self_ns()):
                fh.write(json.dumps({**asdict(span), "self_ns": self_time}) + "\n")


class _Scope:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer._open[-1] if tracer._open else None
        tracer.spans.append(Span(self.name, 0, 0, parent, tracer.op))
        tracer._open.append(self.index)
        # read the clock last on entry and first on exit: bookkeeping stays outside
        tracer.spans[self.index].start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.tracer.spans[self.index].end_ns = end
        self.tracer._open.pop()
        return False


class NullTracer:
    """Tracing off: every span is one shared no-op context."""

    _NULL = contextlib.nullcontext()

    def __init__(self):
        self.op: int | None = None

    def span(self, name: str):
        return self._NULL


def empty_span_us(batches: int = 5, per_batch: int = 20_000) -> float:
    """Median cost of opening and closing one empty span, in microseconds."""
    costs = []
    for _ in range(batches):
        tracer = Tracer()
        start = time.perf_counter_ns()
        for _ in range(per_batch):
            with tracer.span("empty"):
                pass
        costs.append((time.perf_counter_ns() - start) / per_batch / 1e3)
    return statistics.median(costs)


def tail(samples) -> tuple[float, float]:
    """(value, percentile): the highest order statistic with TAIL_MARGIN samples above it.

    Below 2 * TAIL_MARGIN samples that statistic would sit under the median,
    so the median is returned, as percentile 50.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count < 2 * TAIL_MARGIN:
        return statistics.median(ordered), 50.0
    return ordered[count - TAIL_MARGIN - 1], 100.0 * (count - TAIL_MARGIN) / count
