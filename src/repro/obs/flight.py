"""Per-shard flight recorder: the last N operational events, dumped on crash.

A bounded ring of decision/swap/breaker/session events that costs one deque
append per event while everything is healthy, and turns into a post-mortem
artifact the moment something isn't: an SLO breaker trip, a rollout-guard
rollback, or a shard death auto-dumps the ring (to ``dump_dir`` as JSON if
configured, always to the structured log), and the control plane's ``flight``
command dumps it on demand.

The point is debuggability without reproduction: "what was the shard doing in
the 500 events before it died" is answerable from the artifact alone.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Optional

from .logging import get_logger, log_event

__all__ = ["FlightRecorder", "FLIGHT_DIR_ENV"]

# Processes that can't be handed a dump_dir argument (forked shard workers)
# pick one up from the environment instead.
FLIGHT_DIR_ENV = "DECIMA_FLIGHT_DIR"

_logger = get_logger("obs.flight")


class FlightRecorder:
    """Bounded ring buffer of recent events with dump-on-demand."""

    STATS = (
        ("capacity",),
        ("num_events", "flight_events_total", "counter",
         "Events appended to the flight recorder"),
        ("buffered",),
        ("num_dumps", "flight_dumps_total", "counter", "Flight-recorder dumps taken"),
        ("last_dump_reason",),
    )

    def __init__(
        self,
        capacity: int = 512,
        service: str = "",
        dump_dir: Optional[str] = None,
    ):
        self.capacity = capacity
        self.service = service
        self.dump_dir = dump_dir if dump_dir is not None else os.environ.get(
            FLIGHT_DIR_ENV
        )
        self._events: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.num_events = 0
        self.num_dumps = 0
        self.last_dump_reason: Optional[str] = None
        self.last_dump_path: Optional[str] = None

    def record(self, kind: str, **fields) -> None:
        """Append one event. Cheap enough for per-decision use."""
        event = {"ts": time.time(), "kind": kind}
        event.update(fields)
        self._events.append(event)
        self.num_events += 1

    def events(self) -> list:
        return [dict(event) for event in list(self._events)]

    def dump(self, reason: str) -> dict:
        """Snapshot the ring into a JSON-ready payload; persist if configured.

        Returns the payload either way so callers (control plane, tests) get
        the events even with no dump_dir.  Never raises: a dump triggered by
        a dying shard must not mask the original failure.
        """
        with self._lock:
            payload = {
                "service": self.service,
                "reason": reason,
                "dumped_at": time.time(),
                "num_events_total": self.num_events,
                "events": self.events(),
            }
            self.num_dumps += 1
            self.last_dump_reason = reason
            sequence = self.num_dumps
        path = None
        if self.dump_dir:
            try:
                os.makedirs(self.dump_dir, exist_ok=True)
                name = "flight-{}-{}.json".format(
                    self.service.replace("/", "_") or "recorder", sequence
                )
                path = os.path.join(self.dump_dir, name)
                with open(path, "w") as handle:
                    json.dump(payload, handle, indent=2, sort_keys=True)
                    handle.write("\n")
                self.last_dump_path = path
            except OSError:
                path = None
        log_event(
            _logger,
            "flight_dump",
            service=self.service,
            reason=reason,
            num_events=len(payload["events"]),
            path=path,
        )
        if path is not None:
            payload["path"] = path
        return payload

    @property
    def buffered(self) -> int:
        return len(self._events)
