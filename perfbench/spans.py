"""In-memory span recorder with self-time accounting.

A span is (name, start, end, parent, run_id): ``parent`` is the index of the
span that was open when this one began, and ``run_id`` groups the spans of
one traced pass (set-up, one workload repetition, ...). Spans stay in memory
while the benchmark runs and are written out once, at exit.

Self time is a span's duration minus the part of its interval that its
direct children cover, so nested layers are never counted twice.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans plus named counters; single-threaded, nesting by call order."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = {}
        self.run_id = "main"
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), None, parent, self.run_id))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} is not the innermost open span")
        self._open.pop()
        self.spans[index].end = self.clock()

    def add(self, name: str, value: float = 1) -> None:
        """Add to a counter of the current run."""
        counts = self.counts.setdefault(self.run_id, {})
        counts[name] = counts.get(name, 0) + value

    def ancestors(self, index: int):
        """Names of the spans enclosing span ``index``, innermost first."""
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent].name
            parent = self.spans[parent].parent

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its direct children's
        intervals, each clipped to the parent's interval."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for lo, hi in sorted(children.get(i, ())):
                lo, hi = max(lo, reach), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.duration - covered)
        return out

    def summary(self, run_id: str | None = None) -> dict[str, dict[str, float]]:
        """name -> {calls, s, self_s} over the spans of one run (or all)."""
        out: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            if run_id is not None and s.run_id != run_id:
                continue
            row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += s.duration
            row["self_s"] += own
        return out

    def write(self, path: str) -> None:
        """One JSON object per span, in start order, then one per run's counters."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
            for run_id, counts in self.counts.items():
                fh.write(json.dumps({"run_id": run_id, "counts": counts}) + "\n")
