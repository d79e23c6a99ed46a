"""Client side of the policy service: wire clients and an episode driver.

:class:`PolicyClient` is the raw synchronous protocol client (one session per
connection) — it speaks the identical protocol to a
:class:`~repro.service.server.PolicyServer` (standalone or a fleet shard) and
to a :class:`~repro.service.router.ShardRouter` front.  :class:`ControlClient`
talks to the router's control plane (health, fleet stats, live
reconfiguration).  :func:`drive_episode` is the reference *consumer*: it runs
a local :class:`~repro.simulator.SchedulingEnvironment` as the "cluster"
through the simulator's one episode loop, with a scheduler that ships every
observation to the server and applies the returned action — i.e. what a live
cluster's scheduler agent would do, with simulated time standing in for the
cluster.  The load generator and the CI smoke test both drive it.
"""

from __future__ import annotations

import socket
import time
from typing import Iterable, Optional

from ..obs import Span
from ..simulator.environment import (
    Action,
    Observation,
    SchedulingEnvironment,
    run_episode,
)
from ..simulator.jobdag import JobDAG
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_observation,
    read_message,
    write_message,
)

__all__ = ["ControlClient", "PolicyClient", "decode_action", "drive_episode"]


class _LineClient:
    """Shared request/response plumbing of the synchronous wire clients."""

    def __init__(self, host: str, port: int, timeout: Optional[float] = 30.0):
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._stream = self._socket.makefile("rwb")

    def request(self, payload: dict) -> dict:
        """Send one frame and read its reply (raises on ``error`` replies).

        A socket error or timeout leaves the stream mid-frame — the late
        reply would be read as the next request's answer — so it closes the
        client, and every later request raises.
        """
        if self._stream.closed:
            raise ProtocolError("connection closed by an earlier failed request")
        try:
            write_message(self._stream, payload)
            reply = read_message(self._stream)
        except OSError:
            self.close()
            raise
        if reply is None:
            raise ProtocolError("server closed the connection")
        if reply["type"] == "error":
            raise ProtocolError(
                reply.get("message", "unknown server error"),
                code=reply.get("code"),
            )
        return reply

    def bye(self) -> None:
        try:
            self.request({"type": "bye"})
        except (ProtocolError, OSError):
            pass

    def close(self) -> None:
        try:
            self._stream.close()
        except OSError:
            pass
        try:
            self._socket.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.bye()
        self.close()


class PolicyClient(_LineClient):
    """Synchronous newline-delimited-JSON client for one cluster session."""

    def __init__(self, host: str, port: int, timeout: Optional[float] = 30.0):
        super().__init__(host, port, timeout=timeout)
        self.session_id: Optional[str] = None
        # Filled in by hello()'s welcome: the protocol version and the newest
        # serving policy version seen on any reply.
        self.protocol: Optional[int] = None
        self.policy_version: Optional[int] = None

    # ------------------------------------------------------------------- API
    def hello(
        self,
        session_id: Optional[str] = None,
        num_executors: Optional[int] = None,
        seed: int = 0,
        fallback: Optional[str] = None,
    ) -> dict:
        payload: dict = {
            "type": "hello",
            "seed": int(seed),
            "protocol": PROTOCOL_VERSION,
        }
        if session_id is not None:
            payload["session_id"] = session_id
        if num_executors is not None:
            payload["num_executors"] = int(num_executors)
        if fallback is not None:
            payload["fallback"] = fallback
        reply = self.request(payload)
        self.session_id = reply["session_id"]
        self.protocol = reply["protocol"]
        self.policy_version = reply["policy_version"]
        return reply

    def decide(
        self,
        observation: Observation,
        request_id: Optional[int] = None,
        trace: bool = False,
    ) -> dict:
        """One scheduling decision for ``observation`` (an ``action`` reply).

        With ``trace=True`` the decision is traced end-to-end:
        a ``client.decide`` span is minted here, its context rides the wire
        so every hop (router, shard, broker, model stages) files child spans,
        and after the reply the finished client span is reported back to the
        server's span store.  The reply then carries ``"trace_id"`` — query
        it via :meth:`ControlClient.trace` (fleet) or a data-plane ``trace``
        request.  Tracing costs one extra round-trip per decision; leave it
        off on the hot path and sample instead.
        """
        payload = {
            "type": "decide",
            "session_id": self.session_id,
            "observation": encode_observation(observation),
        }
        if request_id is not None:
            payload["request_id"] = int(request_id)
        span = None
        if trace:
            span = Span(
                "client.decide",
                service="client",
                tags={"session_id": self.session_id},
            )
            payload["trace"] = span.context()
        reply = self.request(payload)
        if reply.get("request_id") != payload.get("request_id"):
            self.close()
            raise ProtocolError(
                f"reply to request {reply.get('request_id')!r} "
                f"received for request {payload.get('request_id')!r}"
            )
        self.policy_version = reply["policy_version"]
        if span is not None:
            span.set_tag("source", reply.get("source"))
            span.finish()
            # File the client half of the trace where the rest of it lives.
            self.request({"type": "trace_report", "spans": [span.to_dict()]})
            reply = dict(reply)
            reply["trace_id"] = span.trace_id
        return reply

    def stats(self) -> dict:
        return self.request({"type": "stats"})

    def metrics(self, format: str = "json") -> dict:
        """This server's metrics-registry snapshot (JSON or Prometheus)."""
        return self.request({"type": "metrics", "format": format})

    def trace(self, trace_id: str) -> dict:
        """Every span this server stored for ``trace_id``."""
        return self.request({"type": "trace", "trace_id": str(trace_id)})

    def flight(self, reason: str = "on_demand", dump: bool = True) -> dict:
        """Dump (or with ``dump=False`` peek at) the server's flight ring."""
        return self.request({"type": "flight", "reason": reason, "dump": dump})


class ControlClient(_LineClient):
    """Synchronous client for the router's control plane.

    Connect it to :attr:`ShardRouter.control_address` (or
    :attr:`ServingFleet.control_address`); one connection can issue any
    number of control requests.
    """

    def health(self) -> dict:
        """Actively probe every shard; returns per-shard liveness + placement."""
        return self.request({"type": "health"})

    def stats(self) -> dict:
        """Router counters plus each shard's broker/SLO accounting."""
        return self.request({"type": "stats"})

    def reconfigure(self, **changes) -> dict:
        """Live reconfiguration, e.g. ``reconfigure(max_sessions=32)`` or
        ``reconfigure(shard=1, draining=True)``."""
        return self.request({"type": "reconfigure", **changes})

    def metrics(self, format: str = "json") -> dict:
        """Fleet-wide registry scrape: the router's plus every shard's.

        ``format="prometheus"`` returns one text exposition with per-shard
        labels in ``reply["body"]``; JSON keeps the snapshots separate under
        ``reply["router"]`` / ``reply["shards"]``.
        """
        return self.request({"type": "metrics", "format": format})

    def trace(self, trace_id: str) -> dict:
        """One trace id's spans from the router and every shard, merged and
        sorted by start time — the end-to-end story of one decision."""
        return self.request({"type": "trace", "trace_id": str(trace_id)})

    def flight(self, reason: str = "on_demand") -> dict:
        """Dump the router's flight ring and every shard's, in one reply."""
        return self.request({"type": "flight", "reason": reason})


def decode_action(reply: dict, observation: Observation) -> Optional[Action]:
    """Map an ``action`` reply back onto the client's own job/node objects."""
    if reply.get("noop"):
        return None
    job_id = int(reply["job_id"])
    node_id = int(reply["node_id"])
    for job in observation.job_dags:
        if job.job_id == job_id:
            for node in job.nodes:
                if node.node_id == node_id:
                    return Action(
                        node=node,
                        parallelism_limit=int(reply["parallelism_limit"]),
                    )
    raise ProtocolError(
        f"server chose job {job_id} node {node_id}, which this cluster does not have"
    )


class _RemotePolicy:
    """The scheduler of a remotely served episode: one ``decide`` per decision."""

    def __init__(self, client: PolicyClient, trace_every: Optional[int]):
        self.client = client
        self.trace_every = trace_every
        self.sources: dict[str, int] = {}
        self.latencies_ms: list[float] = []
        self.round_trips_ms: list[float] = []
        self.trace_ids: list[str] = []

    def reset(self) -> None:
        """The server keeps the session's state; nothing to clear here."""

    def schedule(self, observation: Observation) -> Optional[Action]:
        decisions = len(self.latencies_ms)
        traced = self.trace_every is not None and decisions % self.trace_every == 0
        start = time.perf_counter()
        reply = self.client.decide(observation, request_id=decisions, trace=traced)
        self.round_trips_ms.append((time.perf_counter() - start) * 1000.0)
        action = decode_action(reply, observation)
        self.sources[reply["source"]] = self.sources.get(reply["source"], 0) + 1
        self.latencies_ms.append(float(reply["latency_ms"]))
        if traced and "trace_id" in reply:
            self.trace_ids.append(reply["trace_id"])
        return action


def drive_episode(
    client: PolicyClient,
    environment: SchedulingEnvironment,
    jobs: Iterable[JobDAG],
    seed: Optional[int] = None,
    max_decisions: Optional[int] = None,
    trace_every: Optional[int] = None,
) -> dict:
    """Run one full episode with every decision served remotely.

    Returns a summary: decision counts by source, per-request latencies in
    milliseconds — ``latencies_ms`` is the model time the *server* reports,
    ``round_trips_ms`` what the *client* waited for each ``decide`` (encode,
    wire, queueing and batch window included; a traced decision also pays
    its ``trace_report``) — and the episode's scheduling outcome.

    ``trace_every=N`` traces every Nth decision end-to-end (see
    :meth:`PolicyClient.decide`); the minted trace ids come back under
    ``"trace_ids"`` so a caller (the loadgen, a test) can reconstruct those
    decisions from the control plane.
    """
    policy = _RemotePolicy(client, trace_every)
    result = run_episode(
        environment, policy, jobs, seed=seed, max_decisions=max_decisions
    )
    summary = {
        "decisions": len(policy.latencies_ms),
        "sources": policy.sources,
        "latencies_ms": policy.latencies_ms,
        "round_trips_ms": policy.round_trips_ms,
        "finished_jobs": len(result.finished_jobs),
        "unfinished_jobs": len(result.unfinished_jobs),
        "wall_time": result.wall_time,
    }
    if policy.trace_ids:
        summary["trace_ids"] = policy.trace_ids
    return summary
