"""The policy server: a long-lived TCP service hosting one Decima agent.

:class:`PolicyServer` is the one server of the serving stack — a single
in-process deployment and every fleet shard run this class.  One asyncio event
loop (on a background thread, so ``start()/stop()`` block like the rest of the
stack) multiplexes every client connection plus the dispatch coroutine:
connection handlers reconcile ``decide`` snapshots into the session's shadow
DAGs, park a future on the dispatch queue and await it; the dispatcher
coalesces whatever is pending into one broker batch.  A lone request is
dispatched at once; a batch that already has company is held open for
stragglers for the adaptive window
(:class:`~repro.service.batcher.AdaptiveBatchWindow`), which on Linux really
lasts at least a millisecond: the loop's epoll wait rounds any timeout up to
a whole millisecond.  The broker's GNN forward runs inline on the loop — it
*is* the work; while it runs, arriving frames queue in the socket buffers and
form the next batch.

A connection is answered strictly sequentially, so a session's shadow state
is never touched concurrently; and because every session's decisions depend
only on its own rng stream, graph cache and observations, the batch
composition the dispatcher happens to form has no effect on any session's
action sequence.  Every reader is bounded by
:data:`~repro.service.protocol.MAX_FRAME_BYTES`; an over-bound frame gets a
``frame_too_large`` error frame and the connection is closed.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from ..core.agent import DecimaAgent
from ..obs import (
    FlightRecorder,
    MetricsRegistry,
    SpanStore,
    get_logger,
    log_event,
    stat_values,
)
from ..schedulers import make_scheduler, scheduler_names
from ..simulator.environment import SimulatorConfig
from .batcher import (
    AdaptiveBatchWindow,
    CircuitBreaker,
    DecisionRequest,
    DecisionResult,
    RequestBroker,
)
from .config import ServingConfig
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    error_frame,
    next_frame,
    write_frame,
)
from .session import SessionState

__all__ = ["PolicyServer"]

# The most distinct sessions one broker batch coalesces.
MAX_BATCH_SIZE = 64
# The adaptive batch window's upper bound: how long a saturated dispatcher
# holds a batch open for stragglers, far below any decision SLO.
BATCH_WINDOW_MAX_MS = 2.0

_QUEUE_SENTINEL = None

_logger = get_logger("service.server")


class PolicyServer:
    """Serve scheduling decisions for many concurrent cluster sessions.

    Owns the request broker, the session registry, the protocol handlers
    (open/close sessions, reconcile ``decide`` snapshots, build reply
    payloads) and the event loop that runs them: one reader coroutine per
    connection plus one dispatch coroutine, which is what lets a single
    process hold hundreds of concurrent sessions.
    """

    def __init__(
        self,
        agent: DecimaAgent,
        config: Optional[ServingConfig] = None,
        service_name: str = "server",
    ):
        config = ServingConfig() if config is None else config
        self.agent = agent
        self.config = config
        self.adaptive_window = AdaptiveBatchWindow(max_ms=BATCH_WINDOW_MAX_MS)
        breaker = None
        if config.slo_ms is not None:
            breaker = CircuitBreaker(slo_seconds=config.slo_ms / 1000.0)
        self.broker = RequestBroker(agent, greedy=config.greedy, breaker=breaker)
        self.sessions: dict[str, SessionState] = {}
        self._sessions_lock = threading.Lock()
        self._session_counter = 0
        # --- observability (see docs/OBSERVABILITY.md) ---------------------
        # One registry, span store and flight recorder per server/shard.
        # Everything here reads existing state when scraped (the owners'
        # ``STATS`` rows) or sits behind None checks on the hot path, so an
        # unscraped, untraced server does the same work as one without
        # telemetry.
        self.service_name = str(service_name)
        self.metrics = MetricsRegistry()
        self.spans = SpanStore()
        self.flight = FlightRecorder(
            service=self.service_name, dump_dir=config.flight_dir
        )
        self.broker.metrics = self.metrics
        self.broker.flight = self.flight
        self.broker.latency_metric = self.metrics.histogram(
            "decision_latency_ms", "End-to-end broker decision latency"
        )
        self.metrics.gauge(
            "sessions_open",
            "Currently connected cluster sessions",
            read=self.num_live_sessions,
        )
        for owner in (
            self.broker,
            self.adaptive_window,
            self.broker.merge_cache,
            agent.gnn,
            agent.stage_timings,
            self.flight,
            self.spans,
        ):
            if owner is not None:  # no GNN without graph embeddings
                self.metrics.expose(owner)
        if breaker is not None:
            self.metrics.expose(breaker)
            breaker.on_open = self._on_breaker_open
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        # Same-session requests deferred to the next batch (the broker needs
        # distinct sessions per batch).
        self._requeue: list = []
        self._dispatch_task: Optional[asyncio.Task] = None
        self._connections: dict = {}  # live handler task -> its StreamWriter
        self._address: Optional[tuple] = None
        self._running = False

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — resolves port 0 after :meth:`start`."""
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    def start(self) -> tuple:
        """Spin up the loop thread, bind and start serving."""
        if self._running:
            raise RuntimeError("server already started")
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="policy-server-loop", daemon=True
        )
        self._loop_thread.start()
        future = asyncio.run_coroutine_threadsafe(self._start_serving(), self._loop)
        self._address = future.result(timeout=10.0)
        return self._address

    async def _start_serving(self) -> tuple:
        self._queue = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_FRAME_BYTES,
        )
        self._dispatch_task = asyncio.create_task(self._dispatch_loop())
        self._running = True  # before the loop can run any connection handler
        return self._server.sockets[0].getsockname()[:2]

    def stop(self) -> None:
        """Stop serving, answer parked requests with errors, join the loop."""
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
        assert self._server is not None and self._queue is not None
        self._server.close()  # stop accepting; open connections are ours to end
        self._queue.put_nowait(_QUEUE_SENTINEL)
        try:
            await asyncio.wait_for(self._dispatch_task, timeout=5.0)
        except asyncio.TimeoutError:
            pass  # wait_for cancelled it; its finally failed what was parked
        # Handlers have written the replies resolved above; end every open
        # connection while the loop is still alive to run their cleanup.
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=5.0)
        # Last: from Python 3.12 this waits for every accepted connection.
        await self._server.wait_closed()

    def __enter__(self) -> "PolicyServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------ observability
    def _on_breaker_open(self, breaker: CircuitBreaker) -> None:
        """SLO trip: record it, dump the flight ring, log the event."""
        self.flight.record(
            "breaker_open",
            num_opens=breaker.num_opens,
            slo_ms=breaker.slo_seconds * 1000.0,
            policy_version=self.broker.policy_version,
        )
        self.flight.dump("slo_breaker_open")
        log_event(
            _logger,
            "breaker_open",
            service=self.service_name,
            num_opens=breaker.num_opens,
            slo_ms=breaker.slo_seconds * 1000.0,
        )

    def metrics_payload(self, message: dict) -> dict:
        """Handle a ``metrics`` request (data plane and control plane alike)."""
        format_name = str(message.get("format", "json"))
        if format_name == "prometheus":
            return {
                "type": "metrics",
                "format": "prometheus",
                "body": self.metrics.prometheus(),
            }
        if format_name != "json":
            raise ProtocolError(f"unknown metrics format {format_name!r}")
        return {
            "type": "metrics",
            "format": "json",
            "service": self.service_name,
            "metrics": self.metrics.snapshot(),
        }

    def trace_payload(self, message: dict) -> dict:
        """Handle a ``trace`` request: every stored span of one trace id."""
        trace_id = message.get("trace_id")
        if not trace_id:
            raise ProtocolError("trace request needs a trace_id")
        spans = self.spans.get(str(trace_id))
        spans.sort(key=lambda span: span.get("start_time", 0.0))
        return {
            "type": "trace",
            "trace_id": str(trace_id),
            "service": self.service_name,
            "spans": spans,
        }

    def record_spans(self, message: dict) -> dict:
        """Handle a ``trace_report``: a client files its own finished spans.

        This is how the client half of a traced decision lands in the same
        store as the server half — the loadgen reports its ``client.decide``
        span here after each traced reply.
        """
        spans = message.get("spans", [])
        if not isinstance(spans, list):
            raise ProtocolError("trace_report spans must be a list")
        self.spans.extend(span for span in spans if isinstance(span, dict))
        return {"type": "trace_reported", "count": len(spans)}

    def flight_payload(self, message: dict) -> dict:
        """Handle a ``flight`` request: dump (default) or peek at the ring."""
        if message.get("dump", True):
            recorder = self.flight.dump(str(message.get("reason", "on_demand")))
        else:
            recorder = {
                "service": self.service_name,
                "events": self.flight.events(),
            }
        return {
            "type": "flight",
            "service": self.service_name,
            "recorder": recorder,
            "stats": stat_values(self.flight),
        }

    # --------------------------------------------------------- learning target
    # The broker owns the surface an OnlineLearningManager learns on (see
    # RequestBroker); a server is the same target by forwarding, and these
    # names are the fleet's shard commands.
    def install_policy(self, state: dict, version: int) -> None:
        """Stage refreshed weights for an atomic hot-swap.

        Delegates to the broker: the swap is applied at the top of the next
        decision round on the dispatch coroutine, so no in-flight
        forward ever sees mixed weights and no session is dropped.
        """
        self.broker.install_policy(state, version)

    def served_policy(self) -> tuple:
        return self.broker.served_policy()

    def record_experience(self) -> None:
        self.broker.record_experience()

    def drain_experience(self) -> list:
        return self.broker.drain_experience()

    def broker_stats(self) -> list:
        return self.broker.broker_stats()

    def report_learning(self, reader) -> None:
        self.broker.report_learning(reader)

    @property
    def policy_version(self) -> int:
        return self.broker.policy_version

    def num_live_sessions(self) -> int:
        with self._sessions_lock:
            return len(self.sessions)

    # ----------------------------------------------------------------- handlers
    def open_session(self, message: dict, existing: Optional[SessionState]):
        """Handle a ``hello``: register a session, return it + the welcome."""
        if existing is not None:
            # Allowing a re-hello would orphan the previous session in
            # self.sessions (its id blocked until restart); refuse instead.
            raise ProtocolError(
                f"session {existing.session_id!r} is already open on this connection"
            )
        if message.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol {message.get('protocol')!r}: this server "
                f"speaks protocol {PROTOCOL_VERSION}",
                code="unsupported_protocol",
            )
        with self._sessions_lock:
            self._session_counter += 1
            default_id = f"session-{self._session_counter}"
        session_id = str(message.get("session_id") or default_id)
        num_executors = int(message.get("num_executors", self.agent.total_executors))
        fallback_name = str(message.get("fallback", self.config.fallback))
        if fallback_name not in scheduler_names():
            raise ProtocolError(f"unknown fallback scheduler {fallback_name!r}")
        fallback = make_scheduler(
            fallback_name, SimulatorConfig(num_executors=num_executors)
        )
        session = SessionState(
            session_id=session_id,
            num_executors=num_executors,
            seed=int(message.get("seed", 0)),
            fallback=fallback,
        )
        with self._sessions_lock:
            if session_id in self.sessions:
                raise ProtocolError(f"session id {session_id!r} is already connected")
            self.sessions[session_id] = session
        self.flight.record(
            "session_open", session_id=session_id, num_executors=num_executors
        )
        log_event(
            _logger,
            "session_open",
            service=self.service_name,
            session_id=session_id,
            num_executors=num_executors,
            fallback=fallback_name,
        )
        welcome = {
            "type": "welcome",
            "session_id": session_id,
            "scheduler": self.agent.name,
            "total_executors": self.agent.total_executors,
            "fallback": fallback_name,
            "greedy": self.broker.greedy,
            "protocol": PROTOCOL_VERSION,
            "policy_version": self.broker.policy_version,
        }
        return session, welcome

    def deregister_session(self, session: Optional[SessionState]) -> None:
        if session is None:
            return
        with self._sessions_lock:
            self.sessions.pop(session.session_id, None)
        # Drop the broker's merged-structure cache: it holds strong
        # references to the dead session's structures (and through
        # them its shadow DAGs) until the next multi-session batch.
        self.broker.merge_cache.reset()
        self.flight.record(
            "session_close",
            session_id=session.session_id,
            num_decisions=session.num_decisions,
        )
        log_event(
            _logger,
            "session_close",
            service=self.service_name,
            session_id=session.session_id,
            num_decisions=session.num_decisions,
            num_fallback_decisions=session.num_fallback_decisions,
        )

    def build_request(
        self, session: Optional[SessionState], message: dict
    ) -> DecisionRequest:
        if session is None:
            raise ProtocolError("decide before hello — open a session first")
        observation = session.observation_from_snapshot(message["observation"])
        request = DecisionRequest(
            session=session,
            observation=observation,
            request_id=message.get("request_id"),
        )
        # A traced decide carries {"trace": {"trace_id", "span_id"}}: open
        # this hop's span under the caller's.  The untraced hot path pays one
        # dict lookup.
        trace = message.get("trace")
        if trace:
            request.span = self.spans.span(
                "server.decide",
                trace,
                service=self.service_name,
                tags={"session_id": session.session_id},
            )
        return request

    @staticmethod
    def action_reply(
        session: SessionState, message: dict, result: DecisionResult
    ) -> dict:
        reply = {
            "type": "action",
            "request_id": message.get("request_id"),
            "source": result.source,
            "latency_ms": result.latency_seconds * 1000.0,
            "policy_version": result.policy_version,
        }
        reply.update(session.encode_action(result.action))
        return reply

    def stats_payload(self, session: Optional[SessionState] = None) -> dict:
        """The ``stats`` reply: what a client, the router's relay and the
        fleet's shard pipe all receive."""
        payload = {
            "type": "stats",
            "broker": self.broker.stats(),
            "batch_window": stat_values(self.adaptive_window),
            "num_sessions": self.num_live_sessions(),
        }
        if session is not None:
            payload["session"] = session.stats()
        if self.broker.learning_info is not None:
            payload["learning"] = self.broker.learning_info()
        return payload

    # ------------------------------------------------------------- connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if not self._running:  # accepted while stop() was closing the listener
            writer.close()
            return
        session: Optional[SessionState] = None
        self._connections[asyncio.current_task()] = writer
        try:
            while True:
                message = await next_frame(
                    reader,
                    writer,
                    self.flight,
                    service=self.service_name,
                    session_id=None if session is None else session.session_id,
                )
                if message is None:
                    return
                kind = message["type"]
                try:
                    if kind == "hello":
                        session = await self._handle_hello(writer, session, message)
                    elif kind == "decide":
                        await self._handle_decide(writer, session, message)
                    elif kind == "bye":
                        await write_frame(writer, {"type": "goodbye"})
                        return
                    else:
                        await write_frame(writer, self._answer(session, message))
                except ProtocolError as error:
                    await write_frame(writer, error_frame(error))
                except (KeyError, TypeError, ValueError) as error:
                    # Malformed payload (missing fields, wrong types): answer
                    # with an error frame and keep the connection usable, as
                    # the protocol contract promises.
                    await write_frame(
                        writer,
                        {"type": "error",
                         "message": f"malformed {kind!r} payload: {error!r}"},
                    )
        except (ConnectionError, OSError):
            return  # the client vanished mid-exchange
        finally:
            writer.close()
            self.deregister_session(session)
            del self._connections[asyncio.current_task()]

    def _answer(self, session: Optional[SessionState], message: dict) -> dict:
        """The reply to a request that is answered without the dispatcher."""
        kind = message["type"]
        if kind == "stats":
            return self.stats_payload(session)
        if kind == "metrics":
            return self.metrics_payload(message)
        if kind == "trace":
            return self.trace_payload(message)
        if kind == "trace_report":
            return self.record_spans(message)
        if kind == "flight":
            return self.flight_payload(message)
        raise ProtocolError(f"unknown request type {kind!r}")

    async def _handle_hello(
        self, writer, existing: Optional[SessionState], message: dict
    ) -> SessionState:
        session, welcome = self.open_session(message, existing)
        try:
            await write_frame(writer, welcome)
        except (ConnectionError, OSError):
            # The client vanished before seeing the welcome: deregister, or
            # the id would stay blocked (the connection's cleanup only knows
            # about sessions this method returned).
            self.deregister_session(session)
            raise
        return session

    async def _handle_decide(
        self, writer, session: Optional[SessionState], message: dict
    ) -> None:
        request = self.build_request(session, message)
        if not self._running:
            # Raced stop(): the dispatcher may already have exited, and
            # nothing would ever answer a request parked now.
            raise ProtocolError("server shutting down")
        assert self._loop is not None and self._queue is not None
        future: "asyncio.Future[DecisionResult]" = self._loop.create_future()
        self._queue.put_nowait((request, future))
        result = await future  # raises the dispatcher's ProtocolError on failure
        if request.span is not None:  # traced: close this hop's server.decide span
            request.span.set_tag("source", result.source)
            request.span.set_tag("policy_version", result.policy_version)
            request.span.finish()
        await write_frame(writer, self.action_reply(session, message, result))

    # --------------------------------------------------------------- dispatch
    async def _fill_batch(self, batch: list) -> None:
        """Coalesce pending requests: up to :data:`MAX_BATCH_SIZE` distinct sessions.

        First take what is already queued, without a timer.  Only a batch
        that then has company (two or more sessions) and still lacks some
        live session waits, at most the adaptive batch window, for
        stragglers; a lone request is dispatched at once.  Under load,
        requests pile up during the inline forward, so batches arrive with
        company and the window keeps growing them.
        """
        assert self._queue is not None
        queue = self._queue
        sessions = {id(request.session) for request, _ in batch}
        # Once every live session has a request in the batch, no further
        # request can arrive (the protocol is synchronous per session).
        max_size = min(MAX_BATCH_SIZE, max(self.num_live_sessions(), 1))
        while len(batch) < max_size and not queue.empty():
            if not self._admit(queue.get_nowait(), batch, sessions):
                return
        if not 2 <= len(batch) < max_size:
            return
        loop = asyncio.get_running_loop()
        opened = loop.time()
        deadline = opened + self.adaptive_window.seconds()
        while len(batch) < max_size:
            remaining = deadline - loop.time()
            try:
                if remaining <= 0:
                    item = queue.get_nowait()
                else:
                    item = await asyncio.wait_for(queue.get(), timeout=remaining)
            except (asyncio.QueueEmpty, asyncio.TimeoutError):
                break
            if not self._admit(item, batch, sessions):
                break
        self.adaptive_window.record_hold(loop.time() - opened)

    def _admit(self, item, batch: list, sessions: set) -> bool:
        """Put one dequeued item in the batch; ``False`` on the stop signal."""
        if item is _QUEUE_SENTINEL:
            self._queue.put_nowait(_QUEUE_SENTINEL)  # keep the stop signal visible
            return False
        if id(item[0].session) in sessions:
            self._requeue.append(item)  # one in-flight request per session
        else:
            sessions.add(id(item[0].session))
            batch.append(item)
        return True

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        batch: list = []
        try:
            while True:
                if self._requeue:
                    item = self._requeue.pop(0)
                else:
                    item = await self._queue.get()
                if item is _QUEUE_SENTINEL:
                    return
                batch = [item]
                await self._fill_batch(batch)
                self.adaptive_window.observe(len(batch))
                try:
                    results = self.broker.decide([request for request, _ in batch])
                except Exception as error:  # noqa: BLE001 - must answer every request
                    self._fail(batch, f"decision failed: {error!r}")
                    continue
                for (_, future), result in zip(batch, results):
                    if not future.done():
                        future.set_result(result)
        finally:
            # However the dispatcher ends (stop signal, cancellation), nothing
            # may stay parked: fail the batch being coalesced and the deferred
            # requests.  (Nothing is queued behind the stop signal: once
            # ``_running`` is false, ``_handle_decide`` parks no more.)
            self._fail(batch + self._requeue, "server shutting down")
            self._requeue = []

    @staticmethod
    def _fail(batch: list, reason: str) -> None:
        for _, future in batch:
            if not future.done():
                future.set_exception(ProtocolError(reason))
