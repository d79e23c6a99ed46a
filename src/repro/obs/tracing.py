"""Per-decision distributed tracing: spans minted at the client, finished in
every hop that touches the request.

The model is deliberately tiny — a trace is a flat list of spans sharing one
``trace_id``; each span carries its parent's ``span_id`` so the chain
``client.decide → router.forward → server.decide → broker.decide →
stage.{features,propagation,policy,sampling}`` reconstructs as a tree.  IDs
are random hex (no coordination needed across processes), timestamps are
wall-clock for cross-process alignment and ``perf_counter`` for durations.

Tracing is opt-in per request: an untraced decide frame carries no ``trace``
ctx and the whole subsystem stays dormant, which is what keeps golden traces
byte-identical and the overhead benchmark flat.

Spans land in a :class:`SpanStore` — a bounded per-process map of
``trace_id -> [span dicts]`` with LRU eviction — served over the control
plane's ``trace`` command so one trace ID queried at the router yields the
merged cross-process view.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from typing import Optional

__all__ = ["new_trace_id", "new_span_id", "Span", "SpanStore"]


def new_trace_id() -> str:
    return os.urandom(8).hex()


def new_span_id() -> str:
    return os.urandom(4).hex()


class Span:
    """One timed operation within a trace.

    Create it where the operation starts, :meth:`finish` it where it ends;
    if the span was given a ``store`` it files itself on finish so call
    sites never touch the store directly.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "service",
        "start_time",
        "_start_perf",
        "duration_ms",
        "tags",
        "_store",
    )

    def __init__(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        service: str = "",
        store: Optional["SpanStore"] = None,
        tags: Optional[dict] = None,
    ):
        self.trace_id = trace_id or new_trace_id()
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.name = name
        self.service = service
        self.start_time = time.time()
        self._start_perf = time.perf_counter()
        self.duration_ms: Optional[float] = None
        self.tags = dict(tags) if tags else {}
        self._store = store

    def child(self, name: str, tags: Optional[dict] = None) -> "Span":
        return Span(
            name,
            trace_id=self.trace_id,
            parent_id=self.span_id,
            service=self.service,
            store=self._store,
            tags=tags,
        )

    def set_tag(self, key: str, value) -> None:
        self.tags[key] = value

    def finish(self, duration_ms: Optional[float] = None) -> "Span":
        if self.duration_ms is None:
            if duration_ms is not None:
                self.duration_ms = float(duration_ms)
            else:
                self.duration_ms = (time.perf_counter() - self._start_perf) * 1000.0
            if self._store is not None:
                self._store.add(self.to_dict())
        return self

    def context(self) -> dict:
        """The wire form carried inside a decide frame's ``trace`` field."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def to_dict(self) -> dict:
        record = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "service": self.service,
            "start_time": self.start_time,
            "duration_ms": self.duration_ms,
        }
        if self.tags:
            record["tags"] = dict(self.tags)
        return record


class SpanStore:
    """Bounded per-process span storage keyed by trace ID, LRU-evicted.

    Thread-safe: a server's loop thread files spans while other threads
    (control-plane scrapes, tests) read them.
    """

    STATS = (
        ("num_spans", "trace_spans_total", "counter", "Spans filed in the span store"),
        ("num_evicted_traces",),
    )

    def __init__(self, max_traces: int = 256, max_spans_per_trace: int = 64):
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self._traces: "OrderedDict[str, list]" = OrderedDict()
        self._lock = threading.Lock()
        self.num_spans = 0
        self.num_evicted_traces = 0

    def add(self, span_dict: dict) -> None:
        trace_id = span_dict.get("trace_id")
        if not trace_id:
            return
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                spans = []
                self._traces[trace_id] = spans
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
                    self.num_evicted_traces += 1
            else:
                self._traces.move_to_end(trace_id)
            if len(spans) < self.max_spans_per_trace:
                spans.append(dict(span_dict))
                self.num_spans += 1

    def extend(self, span_dicts) -> None:
        for span_dict in span_dicts:
            self.add(span_dict)

    def get(self, trace_id: str) -> list:
        with self._lock:
            return [dict(span) for span in self._traces.get(trace_id, ())]

    def trace_ids(self) -> list:
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def span(
        self,
        name: str,
        context: Optional[dict] = None,
        service: str = "",
        tags: Optional[dict] = None,
    ) -> Optional[Span]:
        """Open a span continuing the wire ``context``, or None if untraced.

        The universal server-side entry point: handlers call this with
        whatever the frame carried; a missing/malformed context costs one
        dict lookup and keeps the hot path dark.
        """
        if not context or "trace_id" not in context:
            return None
        return Span(
            name,
            trace_id=context["trace_id"],
            parent_id=context.get("span_id"),
            service=service,
            store=self,
            tags=tags,
        )
