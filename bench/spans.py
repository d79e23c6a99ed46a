"""In-memory spans recorded by the harness around its calls into each layer.

A span is ``(id, name, start, end, parent, decision, busy_s)``: ``parent`` is
the id of the span that caused it (``None`` for a root) and every span of one
scheduling decision carries the same ``decision`` id.  ``start`` and ``end`` are
wall-clock (``time.perf_counter``).  ``busy_s`` is the CPU time of the recording
thread over the span (``time.thread_time``), set on spans of pure computation
and ``None`` on spans that wait: two client threads share one interpreter lock,
so the wall time of a computation includes the other thread's turns and its
``busy_s`` does not.  Spans are appended to a list while the run is measured and
written to ``<workload>.trace.jsonl`` afterwards, one JSON object per line, in
recording order.

A layer's *self time* is its span's duration minus the part of that interval
its direct children cover.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterable, Optional

__all__ = ["SpanRecorder", "check_span_tree", "read_spans", "self_times", "stamp", "write_spans"]


def stamp() -> tuple:
    """The wall clock and this thread's CPU clock, read together."""
    return time.perf_counter(), time.thread_time()


class SpanRecorder:
    """Append-only span store; one per recording thread, merged at write time."""

    def __init__(self, prefix: str = "") -> None:
        self._prefix = prefix
        self.spans: list[dict] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[str] = None,
        decision: Optional[str] = None,
        span_id: Optional[str] = None,
        busy_s: Optional[float] = None,
    ) -> str:
        """Record one finished span and return its id.

        A caller that records children before their parent ends picks the
        parent's id itself (``span_id``) and adds the parent last.
        """
        if span_id is None:
            span_id = f"{self._prefix}{len(self.spans)}"
        self.spans.append(
            {"id": span_id, "name": name, "start": start, "end": end,
             "parent": parent, "decision": decision, "busy_s": busy_s}
        )
        return span_id

    def add_busy(self, name: str, before: tuple, after: tuple, parent: Optional[str] = None,
                 decision: Optional[str] = None, span_id: Optional[str] = None) -> str:
        """Record a span of pure computation between two :func:`stamp` readings."""
        return self.add(name, before[0], after[0], parent, decision, span_id,
                        busy_s=after[1] - before[1])


def write_spans(path: Path, recorders: Iterable[SpanRecorder]) -> int:
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(path, "w") as handle:
        for recorder in recorders:
            for span in recorder.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
                count += 1
    return count


def read_spans(path: Path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: list[dict]) -> dict:
    """Per-span self time in seconds: duration minus what direct children cover."""
    covered: dict = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    return {
        span["id"]: (span["end"] - span["start"]) - covered.get(span["id"], 0.0)
        for span in spans
    }


def check_span_tree(spans: list[dict], slack: float = 1e-6) -> list[str]:
    """Problems in a span set: unknown parents, children outside their parent,
    a decision id that differs from the parent's, negative self time."""
    by_id = {span["id"]: span for span in spans}
    problems = []
    for span in spans:
        if span["end"] < span["start"]:
            problems.append(f"{span['id']} {span['name']}: ends before it starts")
        parent_id = span["parent"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(f"{span['id']} {span['name']}: unknown parent {parent_id}")
            continue
        if span["start"] < parent["start"] - slack or span["end"] > parent["end"] + slack:
            problems.append(f"{span['id']} {span['name']}: outside parent {parent['name']}")
        if span["decision"] != parent["decision"]:
            problems.append(f"{span['id']} {span['name']}: decision differs from parent")
    for span_id, own in self_times(spans).items():
        if own < -slack:
            problems.append(f"{span_id} {by_id[span_id]['name']}: negative self time {own}")
    return problems
