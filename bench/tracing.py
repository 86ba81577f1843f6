"""In-memory spans and counters recorded around the benchmark's own calls.

A span is (name, start, end, parent span, operation id).  Spans stay in
memory and are written out once, when the run ends.  The untraced run uses
`NullTracer`, whose methods do nothing, so the measured code path is the
same in both modes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    enabled = False

    def span(self, name: str):
        return _NULL

    def count(self, name: str, amount: int = 1) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(int)
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Children of one span run one after another, so a span's self time is
        its duration minus the sum of its children's durations.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans
            ],
            "summary": self.summary(),
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload) + "\n")
