"""Cross-session request batching and the SLO circuit-breaker.

The broker is the serving layer's inference engine.  It takes whatever
``decide`` requests are pending — one per session at most — and answers them
either through the **policy path** (the hosted Decima agent; by default one
batched GNN forward over the disconnected union of all pending sessions'
graphs, see :meth:`~repro.core.agent.DecimaAgent.act_batch`) or, when the
policy path has been breaching its latency SLO, through each session's
registered **fallback heuristic** (FIFO / weighted-fair / anything in the
scheduler registry).

The circuit-breaker is deliberately counted in *decisions*, not wall-clock:
``breach_threshold`` consecutive over-deadline policy passes open it,
``cooldown_decisions`` fallback answers later it half-opens and lets one
policy pass try again (closing on success, reopening on another breach).
Decision-counted state machines are deterministic under test — a slowed
policy path trips the breaker after exactly the same number of requests every
run.

Batching is *never* a behaviour change: each session's decisions come out of
its own row slice of the merged forward with its own rng stream, so a
session's action sequence is identical whether its requests were answered
alone, in any batch composition, or one request per policy pass — the oracle
:class:`repro.verify.oracles.SerialRequestBroker`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..core.agent import DecimaAgent
from ..core.checkpoints import AgentSpec, agent_spec
from ..core.features import MergedStructureCache
from ..obs import stat_values
from ..simulator.environment import Action, Observation
from ..simulator.metrics import latency_histogram
from .session import SessionState

__all__ = [
    "AdaptiveBatchWindow",
    "CircuitBreaker",
    "DecisionRequest",
    "DecisionResult",
    "RequestBroker",
]

# Broker-level latency samples kept for per-shard SLO accounting; decisions
# beyond this window age out (the counters never do).
_BROKER_LATENCY_WINDOW = 10_000
# How many of the latest held-open batches ``AdaptiveBatchWindow.held_ms``
# averages over.
_HOLD_WINDOW = 256


class AdaptiveBatchWindow:
    """Scale the dispatcher's coalescing window with offered load.

    The window is how long the dispatcher holds a batch open for stragglers.
    It opens only for a batch that already has company — two or more
    sessions' requests queued when the dispatcher took the first — so a lone
    request is dispatched at once and never waits on it.  Its ideal size
    depends on the offered load: with a few live sessions any wait is pure
    latency, while with dozens of concurrent sessions a few extra
    milliseconds turns many small forwards into one big merged forward.
    Rather than pin one compromise value, the window tracks an exponential
    moving average of recent batch sizes and interpolates between ``min_ms``
    (idle) and ``max_ms`` (saturated at ``saturate_at`` coalesced sessions).

    The window is a timeout on the event loop, and on Linux the loop's epoll
    wait rounds any timeout up to a whole millisecond: a 0.2 ms window really
    holds about 1.2 ms.  ``window_ms`` is the window asked for; the hold each
    opened window really lasted is clocked by the dispatcher
    (:meth:`record_hold`) and read as ``num_holds`` and ``held_ms``.

    Timing never changes decisions (batch composition is behaviour-neutral,
    see :class:`RequestBroker`), so this is purely a throughput/latency
    trade-off knob.
    """

    STATS = (
        ("ema_batch_size", "batch_ema_size", "gauge", "EMA of dispatched batch sizes"),
        ("window_ms", "batch_window_ms", "gauge", "Current adaptive coalescing window"),
        ("num_holds", "batch_window_holds_total", "counter",
         "Batches held open for stragglers"),
        ("held_ms", "batch_window_held_ms", "gauge",
         "Mean measured hold of recent held-open batches"),
        ("min_ms",),
        ("max_ms",),
    )

    def __init__(
        self,
        min_ms: float = 0.2,
        max_ms: float = 8.0,
        alpha: float = 0.2,
        saturate_at: int = 16,
    ):
        if min_ms < 0 or max_ms < min_ms:
            raise ValueError("need 0 <= min_ms <= max_ms")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if saturate_at < 2:
            raise ValueError("saturate_at must be >= 2")
        self.min_ms = float(min_ms)
        self.max_ms = float(max_ms)
        self.alpha = float(alpha)
        self.saturate_at = int(saturate_at)
        self._ema_batch_size = 1.0
        self.num_holds = 0
        self._holds: deque = deque(maxlen=_HOLD_WINDOW)

    def observe(self, batch_size: int) -> None:
        """Feed one dispatched batch's size into the load estimate."""
        self._ema_batch_size += self.alpha * (float(batch_size) - self._ema_batch_size)

    def record_hold(self, seconds: float) -> None:
        """Count one held-open batch and how long it really was held."""
        self.num_holds += 1
        self._holds.append(seconds)

    @property
    def ema_batch_size(self) -> float:
        return self._ema_batch_size

    @property
    def held_ms(self) -> float:
        """Mean measured hold of the recent held-open batches (0 before any)."""
        holds = tuple(self._holds)  # the dispatcher appends while a scrape reads
        return 1000.0 * sum(holds) / len(holds) if holds else 0.0

    def seconds(self) -> float:
        """The current coalescing window, in seconds."""
        load = (self._ema_batch_size - 1.0) / (self.saturate_at - 1.0)
        fraction = min(1.0, max(0.0, load))
        return (self.min_ms + (self.max_ms - self.min_ms) * fraction) / 1000.0

    @property
    def window_ms(self) -> float:
        return self.seconds() * 1000.0


class CircuitBreaker:
    """Decision-counted SLO breaker for the shared policy path."""

    STATS = (
        ("state",),
        ("is_open", "breaker_open", "gauge", "1 while the SLO circuit-breaker is open"),
        ("slo_seconds",),
        ("num_opens", "breaker_opens_total", "counter", "Circuit-breaker trips"),
        ("cooldown_remaining",),
    )

    def __init__(
        self,
        slo_seconds: float,
        breach_threshold: int = 3,
        cooldown_decisions: int = 20,
    ):
        if slo_seconds <= 0:
            raise ValueError("the SLO must be positive")
        if breach_threshold < 1 or cooldown_decisions < 1:
            raise ValueError("breach_threshold and cooldown_decisions must be >= 1")
        self.slo_seconds = float(slo_seconds)
        self.breach_threshold = int(breach_threshold)
        self.cooldown_decisions = int(cooldown_decisions)
        self.state = "closed"
        self.num_opens = 0
        self._consecutive_breaches = 0
        self.cooldown_remaining = 0
        # Observability hook: called (with this breaker) every time the
        # breaker trips open — the server wires it to the flight recorder so
        # an SLO trip auto-dumps the events leading up to it.
        self.on_open: Optional[Callable[["CircuitBreaker"], None]] = None

    def allow_policy(self) -> bool:
        """True when the next decision should try the policy path.

        While open, the policy path is skipped until the cooldown has been
        spent on fallback decisions; the first decision after that is the
        half-open trial.
        """
        return self.state == "closed" or self.cooldown_remaining <= 0

    def record_policy(self, latency_seconds: float) -> None:
        breached = latency_seconds > self.slo_seconds
        if self.state == "open":
            # Half-open trial: one breach reopens immediately, success closes.
            if breached:
                self._open()
            else:
                self.state = "closed"
                self._consecutive_breaches = 0
            return
        if breached:
            self._consecutive_breaches += 1
            if self._consecutive_breaches >= self.breach_threshold:
                self._open()
        else:
            self._consecutive_breaches = 0

    def record_fallback(self) -> None:
        if self.state == "open" and self.cooldown_remaining > 0:
            self.cooldown_remaining -= 1

    def _open(self) -> None:
        self.state = "open"
        self.cooldown_remaining = self.cooldown_decisions
        self._consecutive_breaches = 0
        self.num_opens += 1
        if self.on_open is not None:
            self.on_open(self)

    @property
    def is_open(self) -> bool:
        return self.state == "open"


@dataclass
class DecisionRequest:
    """One pending ``decide``: a session and its reconciled observation."""

    session: SessionState
    observation: Observation
    request_id: Optional[int] = None
    # Traced requests carry the server's open ``server.decide`` span (the
    # parent under which the broker files its own work); untraced requests
    # leave it None and the broker never touches the tracing subsystem.
    span: Optional[object] = None


@dataclass
class DecisionResult:
    """Outcome of one decision, ready for wire encoding."""

    action: Optional[Action]
    source: str  # "policy" | "fallback" | "noop"
    latency_seconds: float
    # The broker's policy version that answered this decision — the
    # online-learning audit-trail key (every decision maps to the exact
    # weights that produced it, across hot-swaps and rollbacks).
    policy_version: int = 1


class RequestBroker:
    """Answer pending decision requests through one (batched) policy pass."""

    STATS = (
        ("greedy",),
        ("policy_version", "policy_version", "gauge",
         "Monotonic id of the serving weights"),
        ("pending_policy_version",),
        ("num_policy_swaps", "policy_swaps_total", "counter",
         "Hot-swapped policy installs applied"),
        ("num_batches", "batches_total", "counter", "Dispatched decision batches"),
        ("max_batch_size", "max_batch_size", "gauge", "Largest batch dispatched so far"),
        ("num_decisions", "decisions_total", "counter",
         "Answered decisions (policy + fallback)"),
        ("num_fallback_decisions", "fallback_decisions_total", "counter",
         "Decisions answered by the fallback heuristic"),
        ("num_slo_breaches", "slo_breaches_total", "counter",
         "Decisions over the latency SLO"),
        ("graph_delta_refreshes", "graph_delta_refreshes_total", "counter",
         "GraphCache row-level delta refreshes"),
        ("graph_full_refreshes", "graph_full_refreshes_total", "counter",
         "GraphCache full feature refreshes"),
        ("graph_rebuilds", "graph_rebuilds_total", "counter",
         "GraphCache structure rebuilds"),
    )

    def __init__(
        self,
        agent: DecimaAgent,
        greedy: bool = True,
        breaker: Optional[CircuitBreaker] = None,
        decision_tap: Optional[Callable[[DecisionRequest, "DecisionResult"], None]] = None,
        policy_version: int = 1,
    ):
        self.agent = agent
        self.greedy = bool(greedy)
        self.breaker = breaker
        # Monotonic id of the weights currently answering decisions.  Swaps
        # arrive from the online-learning manager on another thread via
        # install_policy(); they are staged under the lock and applied at the
        # top of decide(), which runs serially on the dispatch coroutine — so
        # weights never change mid-forward and no in-flight session is dropped.
        self.policy_version = int(policy_version)
        self.num_policy_swaps = 0
        self._swap_lock = threading.Lock()
        self._pending_swap: Optional[tuple[dict, int]] = None
        # Per-decision observer (the verification harness's session decision
        # tap): called once per answered request, in request order, with the
        # request and its result.  Must not mutate either.
        self.decision_tap = decision_tap
        self.merge_cache = MergedStructureCache()
        self.num_batches = 0
        self.max_batch_size = 0
        # Broker-wide decision accounting (sessions keep their own too, but
        # they disconnect and take their counters with them — these survive,
        # which is what a shard's control-plane SLO report needs).
        self.num_decisions = 0
        self.num_fallback_decisions = 0
        self.num_slo_breaches = 0
        self.latencies: deque = deque(maxlen=_BROKER_LATENCY_WINDOW)
        # Aggregated GraphCache telemetry across every served session: the
        # per-session counters are sampled after each round and the broker
        # accumulates what they gained since the session's ``cache_mark``.
        self.graph_delta_refreshes = 0
        self.graph_full_refreshes = 0
        self.graph_rebuilds = 0
        # Observability seams, wired by the hosting server (None = dark):
        # ``metrics`` / ``flight`` are the shard's MetricsRegistry and
        # FlightRecorder (decision-round / swap events), ``latency_metric`` a
        # registry Histogram fed one millisecond sample per answered decision.
        self.metrics = None
        self.flight = None
        self.latency_metric = None
        # The learning side: the tap record_experience() installs, and the
        # attached manager's report reader (None = frozen serving).
        self._collector = None
        self.learning_info: Optional[Callable[[], dict]] = None

    # ------------------------------------------------------- learning target
    # What an OnlineLearningManager needs of whatever it learns on.
    # PolicyServer forwards these and ServingFleet broadcasts them to its
    # shards under the same names, so the manager never asks which it has.
    def served_policy(self) -> tuple[AgentSpec, dict, int]:
        """The architecture, weights and policy version being served."""
        return agent_spec(self.agent), self.agent.state_dict(), self.policy_version

    def record_experience(self) -> None:
        """Start recording every answered request (idempotent).

        The collector is chained behind whatever ``decision_tap`` is already
        installed (e.g. the verification recorder's), never in place of it.
        """
        if self._collector is not None:
            return
        from ..learning.buffer import ExperienceCollector  # learning imports service

        self._collector = collector = ExperienceCollector()
        existing = self.decision_tap
        if existing is None:
            self.decision_tap = collector
        else:

            def chained(request, result):
                existing(request, result)
                collector(request, result)

            self.decision_tap = chained

    def drain_experience(self) -> list:
        """The steps recorded since the last drain (none before collection)."""
        return [] if self._collector is None else self._collector.drain()

    def broker_stats(self) -> list[dict]:
        """One ``broker`` stats section per live serving process: this one's."""
        return [self.stats()]

    def report_learning(self, reader: Callable[[], dict]) -> None:
        """Put the manager's report (read when asked) where this target's
        ``stats`` readers look."""
        self.learning_info = reader

    def install_policy(self, state: dict, version: int) -> None:
        """Stage a new policy (``state_dict`` payload) for hot-swap.

        Thread-safe; returns immediately.  The swap is applied atomically at
        the start of the next decision round.  Versions must be strictly
        monotonic — a stale install (version not above both the serving and
        any already-staged version) is rejected, so rollbacks re-publish old
        weights under a *new* version rather than rewinding the counter.
        """
        version = int(version)
        with self._swap_lock:
            staged = self._pending_swap[1] if self._pending_swap else self.policy_version
            if version <= max(self.policy_version, staged):
                raise ValueError(
                    f"policy version must be monotonic: got {version}, "
                    f"serving {self.policy_version}"
                    + (f" with {staged} already staged" if staged != self.policy_version else "")
                )
            self._pending_swap = (state, version)

    @property
    def pending_policy_version(self) -> Optional[int]:
        with self._swap_lock:
            return self._pending_swap[1] if self._pending_swap else None

    def _apply_pending_swap(self) -> None:
        with self._swap_lock:
            pending, self._pending_swap = self._pending_swap, None
        if pending is None:
            return
        state, version = pending
        previous = self.policy_version
        self.agent.load_state_dict(state)
        self.policy_version = version
        self.num_policy_swaps += 1
        if self.flight is not None:
            self.flight.record(
                "policy_swap", from_version=previous, to_version=version
            )

    # ----------------------------------------------------------------- policy
    def _broker_span(self, request: DecisionRequest, name: str):
        """Child span under the server's request span (None when untraced)."""
        parent = request.span
        if parent is None:
            return None
        span = parent.child(name)
        span.set_tag("session_id", request.session.session_id)
        return span

    def _policy(
        self, requests: Sequence[DecisionRequest], record_to_breaker: bool
    ) -> list[DecisionResult]:
        spans = [self._broker_span(request, "broker.decide") for request in requests]
        traced = any(span is not None for span in spans)
        start = time.perf_counter()
        decisions = self.agent.act_batch(
            [request.observation for request in requests],
            rngs=[request.session.rng for request in requests],
            graph_caches=[request.session.graph_cache for request in requests],
            greedy=self.greedy,
            merge_cache=self.merge_cache,
            spans=spans if traced else None,
        )
        elapsed = time.perf_counter() - start
        # The batch ran as one forward: every request experienced its latency.
        if record_to_breaker and self.breaker is not None:
            self.breaker.record_policy(elapsed)
        results = []
        for request, span, (action, _) in zip(requests, spans, decisions):
            request.session.record_decision("policy", elapsed)
            if span is not None:
                span.set_tag("source", "policy")
                span.set_tag("batch_size", len(requests))
                span.set_tag("policy_version", self.policy_version)
                span.finish(duration_ms=elapsed * 1000.0)
            results.append(DecisionResult(action, "policy", elapsed))
        return results

    def _fallback(self, request: DecisionRequest) -> DecisionResult:
        span = self._broker_span(request, "broker.fallback")
        start = time.perf_counter()
        action = request.session.fallback.schedule(request.observation)
        elapsed = time.perf_counter() - start
        if self.breaker is not None:
            self.breaker.record_fallback()
        request.session.record_decision("fallback", elapsed)
        if span is not None:
            span.set_tag("source", "fallback")
            span.finish(duration_ms=elapsed * 1000.0)
        return DecisionResult(action, "fallback", elapsed)

    # ----------------------------------------------------------------- decide
    def decide(self, requests: Sequence[DecisionRequest]) -> list[DecisionResult]:
        """Answer every request; no request is ever dropped.

        Requests must come from distinct sessions (the server defers a
        session's next request until its previous one was answered, which the
        per-session synchronous protocol guarantees anyway).
        """
        if len({id(request.session) for request in requests}) != len(requests):
            raise ValueError("a batch must not contain two requests from one session")
        self._apply_pending_swap()
        results: list[Optional[DecisionResult]] = [None] * len(requests)
        self.num_batches += 1
        self.max_batch_size = max(self.max_batch_size, len(requests))

        active: list[int] = []
        for index, request in enumerate(requests):
            if request.observation.schedulable_nodes:
                active.append(index)
            else:
                results[index] = DecisionResult(None, "noop", 0.0)
        if active:
            self._answer(requests, active, results)
        return self._finish(requests, results)

    def _answer(
        self,
        requests: Sequence[DecisionRequest],
        active: Sequence[int],
        results: list,
    ) -> None:
        """Fill ``results[i]`` for every request index in ``active``.

        One breaker consultation for the round's single shared forward.
        Sessions without a fallback stay on the policy path even while the
        breaker is open, so a mixed batch splits into one policy sub-batch
        plus fallback answers.  A policy pass *forced* by a session having no
        fallback (while the breaker said no) must NOT feed the breaker: while
        open it would be mistaken for the half-open trial, closing the
        breaker early or endlessly resetting the cooldown for everyone else.
        Hence the breaker is only recorded when it actually sanctioned the
        pass.
        """
        breaker_allows = self.breaker is None or self.breaker.allow_policy()
        policy_group = [
            i
            for i in active
            if requests[i].session.fallback is None or breaker_allows
        ]
        if policy_group:
            chosen = [requests[i] for i in policy_group]
            answers = self._policy(chosen, record_to_breaker=breaker_allows)
            for index, result in zip(policy_group, answers):
                results[index] = result
        for index in active:
            if results[index] is None:
                results[index] = self._fallback(requests[index])

    def _finish(
        self,
        requests: Sequence[DecisionRequest],
        results: Sequence[Optional[DecisionResult]],
    ) -> list[DecisionResult]:
        for request, result in zip(requests, results):
            if result is not None:
                # Stamp the audit-trail version on every answer (noop too —
                # the client still learns which weights were serving).
                result.policy_version = self.policy_version
                request.session.last_policy_version = self.policy_version
        for result in results:
            if result is None or result.source == "noop":
                continue
            self.num_decisions += 1
            if result.source == "fallback":
                self.num_fallback_decisions += 1
            self.latencies.append(result.latency_seconds)
            if self.latency_metric is not None:
                self.latency_metric.observe(result.latency_seconds * 1000.0)
            if (
                self.breaker is not None
                and result.latency_seconds > self.breaker.slo_seconds
            ):
                self.num_slo_breaches += 1
        if self.flight is not None and requests:
            # One ring event per decision round (not per request) keeps the
            # recorder O(batches): the round is the broker's unit of work.
            sources: dict = {}
            for result in results:
                if result is not None:
                    sources[result.source] = sources.get(result.source, 0) + 1
            self.flight.record(
                "decision_round",
                batch_size=len(requests),
                sources=sources,
                policy_version=self.policy_version,
                max_latency_ms=max(
                    (r.latency_seconds for r in results if r is not None),
                    default=0.0,
                )
                * 1000.0,
            )
        for request in requests:
            session = request.session
            cache = session.graph_cache
            current = (
                cache.num_delta_refreshes,
                cache.num_full_refreshes,
                cache.num_rebuilds,
            )
            mark = session.cache_mark
            self.graph_delta_refreshes += current[0] - mark[0]
            self.graph_full_refreshes += current[1] - mark[1]
            self.graph_rebuilds += current[2] - mark[2]
            session.cache_mark = current
        if self.decision_tap is not None:
            for request, result in zip(requests, results):
                self.decision_tap(request, result)  # type: ignore[arg-type]
        return [result for result in results]  # type: ignore[misc]

    def stats(self) -> dict:
        """The ``broker`` section of a ``stats`` reply.

        The broker's own rows, the recent-latency histogram, and the rows of
        what it drives: where decision time goes inside the agent
        (``stage_timing``), how much propagation work was reused
        (``embedding_reuse``, ``None`` for an agent without a GNN), the
        batch merge cache and the breaker.
        """
        return {
            **stat_values(self),
            # Copied first: the dispatcher appends while a pipe or
            # manager thread asks, and a deque may not grow under iteration.
            "latency_ms": latency_histogram(
                [seconds * 1000.0 for seconds in tuple(self.latencies)]
            ),
            "stage_timing": stat_values(self.agent.stage_timings),
            "embedding_reuse": None if self.agent.gnn is None else stat_values(self.agent.gnn),
            "merge_cache": stat_values(self.merge_cache),
            "breaker": None if self.breaker is None else stat_values(self.breaker),
        }
