"""In-memory spans for the traced run, written out when the run ends.

A span records a name, start, end, the span that caused it and counts
taken at the same boundary.  Spans of one traced run share a trace id.
A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time


class SpanRecorder:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list = []
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "trace": self.trace_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def duration(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def _self_by_id(self) -> dict:
        kids: dict = {}
        for s in self.spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append(s)
        return {s["id"]: (s["end"] - s["start"]) - _union(kids.get(s["id"], ()))
                for s in self.spans}

    def self_times(self) -> dict:
        """Span name -> summed self time over spans of that name."""
        out: dict = {}
        for s, own in zip(self.spans, self._self_by_id().values()):
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path: str) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        own = self._self_by_id()
        rows = [dict(s, start=s["start"] - t0, end=s["end"] - t0,
                     self_s=own[s["id"]]) for s in self.spans]
        with open(path, "w") as f:
            json.dump({"trace": self.trace_id, "spans": rows}, f, indent=1)


def _union(spans) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted((s["start"], s["end"]) for s in spans):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
