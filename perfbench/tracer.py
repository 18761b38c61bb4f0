"""In-memory span recorder for the traced benchmark run.

A span is opened around each call the benchmark makes into a layer's
public function; spans nest, so each records its parent. Spans stay in
memory and are written out once, when the run ends. An untraced run
uses ``Tracer(enabled=False)``, whose ``span`` records nothing.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start_s": time.perf_counter() - self._t0,
            "end_s": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end_s"] = time.perf_counter() - self._t0
            self._stack.pop()

    def report(self) -> list[dict]:
        """Spans with duration and self time (duration minus the part
        covered by direct children; children never overlap, because the
        benchmark calls layers one at a time)."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end_s"] - s["start_s"]
        return [
            dict(s, dur_s=s["end_s"] - s["start_s"],
                 self_s=s["end_s"] - s["start_s"] - child_s[s["id"]])
            for s in self.spans
        ]
