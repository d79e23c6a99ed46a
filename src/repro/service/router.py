"""Session router / load-balancer front for a sharded policy-serving fleet.

The router owns no policy and no sessions' state — it is a thin, stateless-
per-request front that:

* **hashes sessions to shards**: a session id deterministically prefers
  ``crc32(session_id) % num_shards`` (:func:`shard_for_session`) and walks
  forward to the next healthy, non-draining shard.  One session lives on
  exactly one shard for its whole life, so the shard's shadow DAGs, graph
  cache and rng stream stay session-local exactly as in a single server;
* **applies admission control**: above ``max_sessions`` concurrent sessions
  a new ``hello`` is refused with an ``admission_rejected`` error frame
  instead of letting overload grow unbounded queues inside the shards;
* **reports per-session failures cleanly**: when the shard hosting a
  session dies mid-request, the client gets a ``shard_failed`` error frame
  (not a hang, not a raw reset), the shard is marked unhealthy, and new
  sessions route around it;
* **exposes a control plane** on a second listener (mirroring the compute /
  control API split of SiNE's channel server): ``health`` actively probes
  every shard, ``stats`` aggregates router counters with each shard's
  broker/SLO accounting, ``reconfigure`` changes the admission limit or
  drains/undrains/revives shards live, and the observability commands
  (``metrics`` / ``trace`` / ``flight``) fan out over every shard to return
  one fleet-wide registry scrape, span set or flight dump.

Like :class:`~repro.service.server.PolicyServer`, the router runs its event
loop in a background thread so the blocking ``start()/stop()`` lifecycle
matches the rest of the serving stack, and every stream it opens or accepts
is bounded by :data:`~repro.service.protocol.MAX_FRAME_BYTES`.
"""

from __future__ import annotations

import asyncio
import threading
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..obs import (
    FlightRecorder,
    MetricsRegistry,
    SpanStore,
    get_logger,
    log_event,
    render_prometheus,
    stat_values,
)
from .config import ServingConfig
from .protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    error_frame,
    next_frame,
    read_frame,
    write_frame,
)

__all__ = ["ShardRouter", "ShardState", "shard_for_session"]

_logger = get_logger("service.router")


def shard_for_session(session_id: str, num_shards: int) -> int:
    """The shard a session id *prefers* (stable hash, not load-dependent)."""
    if num_shards < 1:
        raise ValueError("need at least one shard")
    return zlib.crc32(str(session_id).encode("utf-8")) % num_shards


@dataclass
class ShardState:
    """The router's view of one shard."""

    host: str
    port: int
    index: int
    healthy: bool = True
    draining: bool = False
    active_sessions: int = 0
    failures: int = 0

    def accepts_new_sessions(self) -> bool:
        return self.healthy and not self.draining

    def describe(self) -> dict:
        return {
            "index": self.index,
            "host": self.host,
            "port": self.port,
            "healthy": self.healthy,
            "draining": self.draining,
            "active_sessions": self.active_sessions,
            "failures": self.failures,
        }


@dataclass
class _RouterCounters:
    routed_sessions: int = 0
    rejected_sessions: int = 0
    shard_failures: int = 0
    forwarded_frames: int = 0
    reconfigurations: int = 0

    STATS = (
        ("routed_sessions", "router_sessions_routed_total", "counter",
         "Sessions admitted and placed on a shard"),
        ("rejected_sessions", "router_sessions_rejected_total", "counter",
         "Sessions refused by admission control"),
        ("shard_failures", "router_shard_failures_total", "counter",
         "Shard failures observed by the router"),
        ("forwarded_frames", "router_forwarded_frames_total", "counter",
         "Frames relayed shard-ward"),
        ("reconfigurations", "router_reconfigurations_total", "counter",
         "Applied live reconfigurations"),
    )


class ShardRouter:
    """Route cluster sessions across shard servers; serve the control plane."""

    # Seconds to open a connection to a shard, and for a control-plane probe
    # of one to answer; past either the shard is marked failed.
    connect_timeout = 5.0
    probe_timeout = 2.0

    def __init__(
        self, shards: Sequence[tuple], config: Optional[ServingConfig] = None
    ):
        if not shards:
            raise ValueError("a router needs at least one shard address")
        self.config = ServingConfig() if config is None else config
        self.shards = [
            ShardState(host=shard_host, port=int(shard_port), index=index)
            for index, (shard_host, shard_port) in enumerate(shards)
        ]
        # Starts at the config's admission limit; ``reconfigure`` moves it.
        self.max_sessions = self.config.max_sessions
        self.counters = _RouterCounters()
        # Router-side observability: its own registry (the relay counters,
        # read when scraped), span store (the router.forward hop of traced
        # decisions) and flight recorder (admission rejections, shard
        # failures, reconfigures; auto-dumped on a shard death).  The control
        # plane's metrics/trace/flight commands merge these with every
        # shard's own, so one query sees the whole fleet.
        self.spans = SpanStore()
        self.flight = FlightRecorder(service="router", dump_dir=self.config.flight_dir)
        self.metrics = MetricsRegistry()
        self.metrics.expose(self.counters)
        self.metrics.gauge(
            "router_active_sessions",
            "Sessions currently live across the fleet",
            read=lambda: self._active_sessions,
        )
        self.metrics.gauge(
            "router_healthy_shards",
            "Shards currently marked healthy",
            read=lambda: sum(shard.healthy for shard in self.shards),
        )
        # Registered by hand, not through the recorder's rows: the router's
        # help text names whose ring this is.
        self.metrics.counter(
            "flight_events_total",
            "Events appended to the router's flight recorder",
            read=lambda: self.flight.num_events,
        )
        self.metrics.counter(
            "flight_dumps_total",
            "Router flight-recorder dumps taken",
            read=lambda: self.flight.num_dumps,
        )
        # Online-learning bookkeeping published through control-plane stats.
        # The learning manager owns the content (current/previous checkpoint
        # version, rollback count); the router just calls its reader.
        self.learning_info: Optional[Callable[[], dict]] = None
        self._active_sessions = 0
        self._session_counter = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._data_server: Optional[asyncio.AbstractServer] = None
        self._control_server: Optional[asyncio.AbstractServer] = None
        self._handlers: set = set()  # live client/control connection tasks
        self._address: Optional[tuple] = None
        self._control_address: Optional[tuple] = None
        self._running = False

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple:
        if self._address is None:
            raise RuntimeError("router is not started")
        return self._address

    @property
    def control_address(self) -> tuple:
        if self._control_address is None:
            raise RuntimeError("router is not started")
        return self._control_address

    def start(self) -> tuple:
        if self._running:
            raise RuntimeError("router already started")
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="shard-router-loop", daemon=True
        )
        self._loop_thread.start()
        future = asyncio.run_coroutine_threadsafe(self._start_serving(), self._loop)
        self._address, self._control_address = future.result(timeout=10.0)
        return self._address

    async def _start_serving(self):
        host = self.config.host
        self._data_server = await asyncio.start_server(
            self._handle_client, host, self.config.port, limit=MAX_FRAME_BYTES
        )
        self._control_server = await asyncio.start_server(
            self._handle_control, host, self.config.control_port, limit=MAX_FRAME_BYTES
        )
        self._running = True  # before the loop can run any connection handler
        return (
            self._data_server.sockets[0].getsockname()[:2],
            self._control_server.sockets[0].getsockname()[:2],
        )

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop)
        try:
            future.result(timeout=10.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._loop_thread is not None:
                self._loop_thread.join(timeout=5.0)
            self._loop.close()
            self._loop = None
            self._loop_thread = None

    async def _shutdown(self) -> None:
        servers = (self._data_server, self._control_server)
        for server in servers:
            server.close()  # stop accepting; open connections are ours to end
        handlers = list(self._handlers)
        for task in handlers:
            task.cancel()  # its cleanup closes the client and shard streams
        await asyncio.gather(*handlers, return_exceptions=True)
        for server in servers:  # last: on Python >= 3.12 this waits for them
            await server.wait_closed()

    def _accept(self, writer: asyncio.StreamWriter) -> bool:
        """Track this connection's handler task so ``stop()`` can end it."""
        if not self._running:  # accepted while stop() was closing the listeners
            writer.close()
            return False
        task = asyncio.current_task()
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        return True

    def __enter__(self) -> "ShardRouter":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # --------------------------------------------------------------- data path
    def _pick_shard(self, session_id: str) -> Optional[ShardState]:
        """Preferred shard by hash; walk forward past unhealthy/draining ones."""
        preferred = shard_for_session(session_id, len(self.shards))
        for offset in range(len(self.shards)):
            shard = self.shards[(preferred + offset) % len(self.shards)]
            if shard.accepts_new_sessions():
                return shard
        return None

    def _mark_failed(self, shard: ShardState) -> None:
        was_healthy = shard.healthy
        shard.healthy = False
        shard.failures += 1
        self.counters.shard_failures += 1
        self.flight.record(
            "shard_failed",
            shard=shard.index,
            host=shard.host,
            port=shard.port,
            failures=shard.failures,
        )
        log_event(
            _logger,
            "shard_failed",
            shard=shard.index,
            host=shard.host,
            port=shard.port,
            failures=shard.failures,
        )
        if was_healthy:
            # First sighting of this shard's death: preserve the events that
            # led here before the ring rolls over.
            self.flight.dump("shard_death")

    async def _connect_shard(self, session_id: str):
        """Open a connection on the session's shard, failing over as needed."""
        while True:
            shard = self._pick_shard(session_id)
            if shard is None:
                return None, None, None
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(
                        shard.host, shard.port, limit=MAX_FRAME_BYTES
                    ),
                    timeout=self.connect_timeout,
                )
                return shard, reader, writer
            except (ConnectionError, OSError, asyncio.TimeoutError):
                # Dead at connect time: mark it and retry the pick, which now
                # walks past this shard (reassignment of its hash slot).
                self._mark_failed(shard)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if not self._accept(writer):
            return
        shard: Optional[ShardState] = None
        shard_reader = shard_writer = None
        admitted = False
        try:
            # The first frame must open the session: everything the router
            # does (admission, placement) keys off the hello.
            message = await next_frame(reader, writer, self.flight, listener="data")
            if message is None:
                return
            if message["type"] != "hello":
                await write_frame(
                    writer,
                    {"type": "error",
                     "message": "the router requires 'hello' as the first frame"},
                )
                return
            if (
                self.max_sessions is not None
                and self._active_sessions >= self.max_sessions
            ):
                self.counters.rejected_sessions += 1
                self.flight.record(
                    "admission_rejected",
                    session_id=message.get("session_id"),
                    active_sessions=self._active_sessions,
                    max_sessions=self.max_sessions,
                )
                log_event(
                    _logger,
                    "admission_rejected",
                    session_id=message.get("session_id"),
                    active_sessions=self._active_sessions,
                    max_sessions=self.max_sessions,
                )
                await write_frame(
                    writer,
                    {
                        "type": "error",
                        "code": "admission_rejected",
                        "message": (
                            f"fleet at admission limit "
                            f"({self._active_sessions}/{self.max_sessions} sessions)"
                        ),
                    },
                )
                return
            if not message.get("session_id"):
                # Placement needs a stable id; assign one before hashing.
                self._session_counter += 1
                message["session_id"] = f"router-{self._session_counter}"
            session_id = str(message["session_id"])
            shard, shard_reader, shard_writer = await self._connect_shard(session_id)
            if shard is None:
                self.flight.record("no_healthy_shards", session_id=session_id)
                await write_frame(
                    writer,
                    {"type": "error", "code": "no_healthy_shards",
                     "message": "no healthy shard can accept this session"},
                )
                return
            self._active_sessions += 1
            shard.active_sessions += 1
            admitted = True
            reply = await self._forward(shard, shard_writer, shard_reader,
                                        writer, message)
            if reply is None or reply.get("type") != "welcome":
                return  # a refused hello (whatever the code) ends the connection
            self.counters.routed_sessions += 1
            # Steady state: strict request/response relay.
            while True:
                message = await next_frame(reader, writer, self.flight, listener="data")
                if message is None:
                    return
                # Traced decide: add the router hop to the chain.  The span
                # continues the client's context, and the frame forwarded to
                # the shard carries *this* span as the parent — so the
                # reconstructed trace reads client → router → shard.
                span = None
                if message["type"] == "decide" and message.get("trace"):
                    span = self.spans.span(
                        "router.forward",
                        message["trace"],
                        service="router",
                        tags={"shard": shard.index, "session_id": session_id},
                    )
                    if span is not None:
                        message["trace"] = span.context()
                reply = await self._forward(shard, shard_writer, shard_reader,
                                            writer, message)
                if span is not None:
                    if reply is not None:
                        span.set_tag("source", reply.get("source"))
                    span.finish()
                if reply is None or message["type"] == "bye":
                    return
        except (ConnectionError, OSError, asyncio.CancelledError):
            return  # the peer vanished, or stop() cancelled this handler
        finally:
            if admitted:
                self._active_sessions -= 1
                assert shard is not None
                shard.active_sessions -= 1
            for peer in (shard_writer, writer):
                if peer is not None:
                    peer.close()

    async def _forward(
        self, shard, shard_writer, shard_reader, client_writer, message: dict
    ) -> Optional[dict]:
        """Relay one frame shard-ward and its reply client-ward.

        Returns the decoded reply, or ``None`` after reporting a shard
        failure to the client (the caller must end the session).
        """
        try:
            await write_frame(shard_writer, message)
            reply = await read_frame(shard_reader)
            if reply is None:
                raise ConnectionResetError("shard closed the connection")
        except (ConnectionError, OSError, ProtocolError):
            self._mark_failed(shard)
            try:
                await write_frame(
                    client_writer,
                    {
                        "type": "error",
                        "code": "shard_failed",
                        "message": (
                            f"shard {shard.index} ({shard.host}:{shard.port}) "
                            f"failed mid-session; please reconnect"
                        ),
                    },
                )
            except (ConnectionError, OSError):
                pass
            return None
        self.counters.forwarded_frames += 1
        await write_frame(client_writer, reply)
        return reply

    # ------------------------------------------------------------ control plane
    async def _shard_request(
        self, shard: ShardState, payload: dict
    ) -> Optional[dict]:
        """One request/reply on a fresh connection to a shard's data plane.

        Returns the reply, or ``None`` when the shard cannot be reached within
        ``probe_timeout`` or answers with anything but the request's own type.
        Placement state is never touched here: each caller decides what a
        failure means.
        """
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(shard.host, shard.port, limit=MAX_FRAME_BYTES),
                timeout=self.probe_timeout,
            )
            try:
                await write_frame(writer, payload)
                reply = await asyncio.wait_for(
                    read_frame(reader), timeout=self.probe_timeout
                )
            finally:
                writer.close()
        except (ConnectionError, OSError, ProtocolError, asyncio.TimeoutError):
            return None
        if reply is None or reply["type"] != payload["type"]:
            return None
        return reply

    async def _fan_out(self, payload: dict) -> list:
        """Every shard's reply (or ``None``) to an observability query.

        Shards marked unhealthy are not asked, and a failed request demotes
        nothing — an observability query should never change placement state.
        """

        async def ask(shard: ShardState) -> Optional[dict]:
            return await self._shard_request(shard, payload) if shard.healthy else None

        return await asyncio.gather(*(ask(shard) for shard in self.shards))

    async def _shard_stats(self, shard: ShardState) -> dict:
        """One shard's ``stats`` entry; a shard that fails to answer is demoted."""
        reply = None
        if shard.healthy:
            reply = await self._shard_request(shard, {"type": "stats"})
            if reply is None:
                self._mark_failed(shard)
        entry = shard.describe()
        entry["ok"] = reply is not None
        if reply is not None:
            entry["broker"] = reply.get("broker")
            entry["batch_window"] = reply.get("batch_window")
            entry["num_sessions"] = reply.get("num_sessions")
        return entry

    async def _metrics_payload(self, message: dict) -> dict:
        """Fleet-wide ``metrics``: the router's registry plus every shard's.

        JSON keeps the per-shard snapshots separate; Prometheus concatenates
        them with a ``shard="N"`` label on every sample (and
        ``service="router"`` on the router's own), so one scrape of the
        control plane yields a standard multi-instance exposition.
        """
        format_name = str(message.get("format", "json"))
        if format_name not in ("json", "prometheus"):
            raise ProtocolError(f"unknown metrics format {format_name!r}")
        replies = await self._fan_out({"type": "metrics", "format": "json"})
        shard_snapshots = [
            (shard.index, reply.get("metrics", {}))
            for shard, reply in zip(self.shards, replies)
            if reply is not None
        ]
        if format_name == "prometheus":
            parts = [
                render_prometheus(
                    self.metrics.snapshot(), extra_labels={"service": "router"}
                )
            ]
            parts.extend(
                render_prometheus(snapshot, extra_labels={"shard": str(index)})
                for index, snapshot in shard_snapshots
            )
            return {
                "type": "metrics",
                "format": "prometheus",
                "body": "".join(parts),
            }
        return {
            "type": "metrics",
            "format": "json",
            "router": self.metrics.snapshot(),
            "shards": [
                {"index": index, "metrics": snapshot}
                for index, snapshot in shard_snapshots
            ],
        }

    async def _trace_payload(self, message: dict) -> dict:
        """Fleet-wide ``trace``: one trace id's spans from every process.

        Merges the router's own ``router.forward`` span(s) with whatever each
        shard stored (``server.decide``, ``broker.*``, ``stage.*`` and any
        client-reported spans) — the single-query end-to-end reconstruction
        of one decision.
        """
        trace_id = message.get("trace_id")
        if not trace_id:
            raise ProtocolError("trace request needs a trace_id")
        trace_id = str(trace_id)
        spans = self.spans.get(trace_id)
        for reply in await self._fan_out({"type": "trace", "trace_id": trace_id}):
            if reply is not None:
                spans.extend(reply.get("spans", []))
        spans.sort(key=lambda span: span.get("start_time", 0.0))
        return {"type": "trace", "trace_id": trace_id, "spans": spans}

    async def _flight_payload(self, message: dict) -> dict:
        """Fleet-wide ``flight``: dump the router's ring and every shard's."""
        reason = str(message.get("reason", "on_demand"))
        replies = await self._fan_out({"type": "flight", "reason": reason})
        return {
            "type": "flight",
            "router": self.flight.dump(reason),
            "shards": [
                {
                    "index": shard.index,
                    "recorder": None if reply is None else reply.get("recorder"),
                }
                for shard, reply in zip(self.shards, replies)
            ],
        }

    async def _health_payload(self) -> dict:
        """Probe every shard, healthy or not, with a ``stats`` request."""
        probes = await asyncio.gather(
            *(self._shard_request(shard, {"type": "stats"}) for shard in self.shards)
        )
        shards = []
        for shard, probe in zip(self.shards, probes):
            # A probe is evidence either way: revive shards that came back
            # only via explicit reconfigure (operators decide), but always
            # demote dead ones.
            if probe is None:
                shard.healthy = False
            shards.append({**shard.describe(), "probe_ok": probe is not None})
        return {
            "type": "health",
            "shards": shards,
            "num_healthy": sum(1 for shard in self.shards if shard.healthy),
            "active_sessions": self._active_sessions,
            "max_sessions": self.max_sessions,
        }

    def _apply_reconfigure(self, message: dict) -> dict:
        """Live reconfiguration: admission limit and per-shard placement state."""
        changed = {}
        if "max_sessions" in message:
            limit = message["max_sessions"]
            self.max_sessions = None if limit is None else int(limit)
            changed["max_sessions"] = self.max_sessions
        if "shard" in message:
            index = int(message["shard"])
            if not 0 <= index < len(self.shards):
                raise ProtocolError(f"unknown shard index {index}")
            shard = self.shards[index]
            if "draining" in message:
                shard.draining = bool(message["draining"])
                changed["draining"] = shard.draining
            if "healthy" in message:
                shard.healthy = bool(message["healthy"])
                changed["healthy"] = shard.healthy
            changed["shard"] = index
        if not changed:
            raise ProtocolError(
                "reconfigure changes nothing: pass max_sessions and/or "
                "shard with draining/healthy"
            )
        self.counters.reconfigurations += 1
        self.flight.record("reconfigure", changed=changed)
        log_event(_logger, "reconfigure", changed=changed)
        return {"type": "reconfigured", "changed": changed}

    async def _stats_payload(self) -> dict:
        payload = {
            "type": "stats",
            "router": {
                **stat_values(self.counters),
                "active_sessions": self._active_sessions,
                "max_sessions": self.max_sessions,
            },
            "shards": list(
                await asyncio.gather(
                    *(self._shard_stats(shard) for shard in self.shards)
                )
            ),
        }
        if self.learning_info is not None:
            payload["learning"] = self.learning_info()
        return payload

    async def _control_reply(self, message: dict) -> dict:
        kind = message["type"]
        if kind == "health":
            return await self._health_payload()
        if kind == "stats":
            return await self._stats_payload()
        if kind == "reconfigure":
            return self._apply_reconfigure(message)
        if kind == "metrics":
            return await self._metrics_payload(message)
        if kind == "trace":
            return await self._trace_payload(message)
        if kind == "flight":
            return await self._flight_payload(message)
        if kind == "bye":
            return {"type": "goodbye"}
        raise ProtocolError(f"unknown control request {kind!r}")

    async def _handle_control(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if not self._accept(writer):
            return
        try:
            while True:
                message = await next_frame(
                    reader, writer, self.flight, listener="control"
                )
                if message is None:
                    return
                try:
                    reply = await self._control_reply(message)
                except ProtocolError as error:
                    reply = error_frame(error)
                except (KeyError, TypeError, ValueError) as error:
                    reply = {
                        "type": "error",
                        "message": f"malformed {message['type']!r} payload: {error!r}",
                    }
                await write_frame(writer, reply)
                if reply["type"] == "goodbye":
                    return
        except (ConnectionError, OSError, asyncio.CancelledError):
            return  # the peer vanished, or stop() cancelled this handler
        finally:
            writer.close()
