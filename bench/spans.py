"""In-memory spans recorded by the benchmark around calls into revlcg.

A span is (name, start, end, parent, run id) plus the amount of work the
call did (``count``) and any extra figures measured at the same
boundary. Span names are ``<layer>.<call>``, the layer being a revlcg
module (``verification``, ``rund``, ``generator``, ``congruence``,
``cli``) or ``bench`` for the benchmark's own grouping spans. Spans stay
in memory while the run measures and are written out once it ends.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    count: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """Used for untraced runs: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str, count: int = 0, alloc: bool = False):
        yield {}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, count: int = 0, alloc: bool = False):
        """Time the block; with ``alloc`` also record its tracemalloc peak.

        The block may add figures to the yielded dict; they land in
        ``Span.extra``.
        """
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        extra: dict = {}
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run_id, count, extra))
        self._open.append(index)
        if alloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield extra
        finally:
            end = time.perf_counter()
            if alloc:
                extra["peak_alloc_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._open.pop()
            span = self.spans[index]
            span.start, span.end = start, end

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by a child span.

        Children of one span never overlap (the benchmark is single
        threaded), so the covered part is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        out: dict[str, float] = {}
        for span, child_time in zip(self.spans, covered):
            out[span.layer] = out.get(span.layer, 0.0) + span.duration - child_time
        return out

    def totals(self) -> dict[str, tuple[float, int, list[dict]]]:
        """Per span name: (summed seconds, summed count, every span's extras)."""
        out: dict[str, tuple[float, int, list[dict]]] = {}
        for span in self.spans:
            secs, count, extras = out.get(span.name, (0.0, 0, []))
            out[span.name] = (secs + span.duration, count + span.count, extras + [span.extra])
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")
