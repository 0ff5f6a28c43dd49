"""In-memory spans and counters for the traced benchmark run.

A span is (id, name, start, end, parent id, circuit id, failed).  Spans are
named `<module>.<what>` after the cliffsim module whose public function they
wrap; the root span of each circuit is `bench.circuit`.  They are recorded
from the benchmark's own code, around calls into cliffsim, and kept in memory
until the run writes them out.
"""

from __future__ import annotations

import time

ROOT_SPAN = "bench.circuit"


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t.spans.append([self.index, self.name, time.perf_counter(), None, parent, t.circuit, False])
        t._stack.append(self.index)

    def __exit__(self, exc_type, exc, tb) -> None:
        t = self.tracer
        record = t.spans[self.index]
        record[3] = time.perf_counter()
        record[6] = exc_type is not None
        t._stack.pop()


class _NoSpan:
    def __enter__(self) -> None:
        pass

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NO_SPAN = _NoSpan()


class Tracer:
    """Span and counter recorder; with `enabled` false every call is a no-op."""

    def __init__(self, enabled: bool = True, circuit=None):
        self.enabled = enabled
        self.circuit = circuit
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "peaks": self.peaks}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[list]] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append(s)
    out = []
    for s in spans:
        kids = sorted((k[2], k[3]) for k in children.get(s[0], ()))
        start, end = s[2], s[3]
        covered = 0.0
        cur_start = cur_end = None
        for a, b in kids:
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(end - start - covered)
    return out
