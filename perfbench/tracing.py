"""In-memory spans for the traced benchmark run.

A span is (name, parent, start, end). Spans nest: a span opened while
another is open becomes its child, and every span opened for one
operation (one train step, one predicted day) hangs under that
operation's root span. Spans stay in memory until the run ends, when
``write`` dumps them as JSON.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, self._open[-1] if self._open else -1, time.perf_counter(), None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (summed self seconds, number of spans).

        Self time is a span's duration minus the time its direct children
        cover; children always lie inside their parent.
        """
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for (name, _, start, end), child in zip(self.spans, covered):
            total, n = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child, n + 1)
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        payload = {
            "spans": [
                {"name": n, "parent": p, "start_s": s - t0, "end_s": e - t0}
                for n, p, s, e in self.spans
            ],
            "counts": self.counts,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
