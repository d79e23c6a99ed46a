"""Newline-delimited-JSON wire protocol of the policy-serving subsystem.

One JSON object per line, UTF-8, over a plain TCP stream; a frame is at most
:data:`MAX_FRAME_BYTES` long.  The client speaks first; every request gets
exactly one reply, so a session's connection is a simple synchronous
request/response channel (concurrency comes from *many* sessions, each on its
own connection — which is precisely what the server's request broker batches
across).

Request types:

``hello``
    Open a session: ``{"type": "hello", "protocol", "session_id",
    "num_executors", "seed", "fallback"}``.  ``"protocol"`` must equal
    :data:`PROTOCOL_VERSION`.  Reply: ``welcome`` (echoes the session id and
    protocol, describes the hosted policy, reports the serving
    ``policy_version``).
``decide``
    Ask for one scheduling decision: ``{"type": "decide", "session_id",
    "request_id", "observation": {...}}`` where the observation payload is
    produced by :func:`encode_observation`.  Reply: ``action`` with the chosen
    ``(job_id, node_id, parallelism_limit)``, the decision ``source``
    (``"policy"`` or ``"fallback"``), the measured ``latency_ms`` and the
    monotonic ``policy_version`` that answered it (the online-learning audit
    trail).  A decide may carry an optional ``"trace": {"trace_id",
    "span_id"}`` context: the server (and every hop in between, see the
    router) then files its share of the decision as spans under that trace,
    queryable via ``trace``.
``stats``
    Reply: per-session decision counts, the latency histogram
    (p50/p95/p99, :func:`repro.simulator.metrics.latency_histogram`) and the
    SLO circuit-breaker state.
``metrics``
    One metrics-registry snapshot:
    ``{"type": "metrics", "format": "json" | "prometheus"}``.  Reply carries
    either the JSON snapshot (``"metrics"``) or the Prometheus text
    exposition (``"body"``) — see :mod:`repro.obs.registry`.
``trace``
    ``{"type": "trace", "trace_id"}`` returns every span this process stored
    for the trace id.
``trace_report``
    ``{"type": "trace_report", "spans": [...]}`` files client-side finished
    spans (e.g. ``client.decide``) into the server's span store, completing
    the end-to-end chain.  Reply: ``trace_reported``.
``flight``
    Dump the flight recorder on demand:
    ``{"type": "flight", "reason"?, "dump"?}``.  Reply carries the ring's
    events plus recorder stats; ``"dump": false`` peeks without counting a
    dump.
``bye``
    Close the session; the server replies ``goodbye`` and drops it.

Errors are reported as ``{"type": "error", "message", ...}`` replies; the
connection stays usable unless framing itself broke.  Some carry a
machine-readable ``code``:

``unsupported_protocol``
    The ``hello`` named no protocol or one this server does not speak; send a
    ``hello`` with ``"protocol": PROTOCOL_VERSION`` on the same connection —
    or on a new one through the router, which ends the connection after any
    refused ``hello``.
``frame_too_large``
    The frame was longer than :data:`MAX_FRAME_BYTES`.  The stream is
    mid-frame and cannot be resynchronised, so the connection is closed
    after this reply and its session dropped.
``admission_rejected``
    The router refused a new session because the fleet is at its admission
    limit; retry later or against another fleet.
``shard_failed``
    The shard hosting this session died mid-session; the session is gone and
    the client must re-``hello`` (the router routes new sessions around the
    dead shard).
``no_healthy_shards``
    Every shard is unhealthy or draining; the fleet cannot admit sessions.

The router's **control plane** (a second listener, same framing) speaks
``health`` (per-shard liveness probe), ``stats`` (router counters + per-shard
broker/SLO accounting), ``reconfigure`` (live admission-limit changes, shard
drain/undrain), ``metrics`` (router + every shard's registry, mergeable with
per-shard labels), ``trace`` (router + shard spans of one trace id, the
fleet-wide reconstruction of a single decision) and ``flight`` (router +
per-shard flight-recorder dumps) — see :mod:`repro.service.router`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from ..obs import get_logger, log_event
from ..simulator.environment import Observation

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_message",
    "write_message",
    "write_frame",
    "decode_frame",
    "error_frame",
    "read_message",
    "read_frame",
    "next_frame",
    "encode_observation",
]

PROTOCOL_VERSION = 3

# The longest frame any reader accepts, passed as ``limit=`` to every asyncio
# stream of the serving stack.  A 200-job TPC-H snapshot is ~350 KB; 4 MiB
# leaves an order of magnitude to spare.
MAX_FRAME_BYTES = 4 * 1024 * 1024

_logger = get_logger("service.protocol")


class ProtocolError(RuntimeError):
    """A malformed frame or an out-of-protocol message.

    ``code`` carries the machine-readable error code of coded error frames
    (see the module docstring); plain protocol violations leave it ``None``.
    """

    def __init__(self, message: str, code: Optional[str] = None):
        super().__init__(message)
        self.code = code


def encode_message(payload: dict) -> bytes:
    """One wire frame: compact JSON + newline (keys sorted for stable logs)."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8") + b"\n"


def write_message(stream, payload: dict) -> None:
    """Write one frame and flush (each frame is a complete request/reply)."""
    stream.write(encode_message(payload))
    stream.flush()


def decode_frame(line: bytes) -> dict:
    """Decode one received wire frame (shared by the sync and asyncio readers)."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed frame: {error}") from error
    if not isinstance(payload, dict) or "type" not in payload:
        raise ProtocolError("every frame must be a JSON object with a 'type'")
    return payload


def error_frame(error: ProtocolError) -> dict:
    """The ``error`` reply reporting ``error`` (with its ``code``, if any)."""
    frame = {"type": "error", "message": str(error)}
    if error.code is not None:
        frame["code"] = error.code
    return frame


def read_message(stream) -> Optional[dict]:
    """Read one frame; ``None`` on a cleanly closed stream."""
    line = stream.readline()
    if not line:
        return None
    return decode_frame(line)


async def write_frame(writer: asyncio.StreamWriter, payload: dict) -> None:
    """Write one frame to an asyncio stream and wait out its back-pressure."""
    writer.write(encode_message(payload))
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one frame from an asyncio stream opened with ``limit=MAX_FRAME_BYTES``.

    ``None`` on a closed stream.  An over-bound frame raises a
    ``frame_too_large`` :class:`ProtocolError`, after which the connection
    must be closed: the stream cannot be resynchronised.
    """
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        line = error.partial  # EOF: empty, or a frame cut short
    except asyncio.LimitOverrunError:
        await _discard_frame(reader)
        raise ProtocolError(
            f"frame exceeds the {MAX_FRAME_BYTES}-byte bound", code="frame_too_large"
        ) from None
    return decode_frame(line) if line else None


async def next_frame(reader, writer, flight, **context) -> Optional[dict]:
    """A listener's next well-formed request; ``None`` once the connection is over.

    The one policy every listener applies to a bad frame: a malformed one is
    answered with an error frame and skipped; an over-bound one is answered,
    recorded in ``flight`` and the log (with the caller's ``context``) and
    ends the connection.
    """
    while True:
        try:
            return await read_frame(reader)
        except ProtocolError as error:
            await write_frame(writer, error_frame(error))
            if error.code == "frame_too_large":
                context["max_frame_bytes"] = MAX_FRAME_BYTES
                flight.record("frame_too_large", **context)
                log_event(
                    _logger, "connection_closed", reason="frame_too_large", **context
                )
                return None


async def _discard_frame(reader: asyncio.StreamReader) -> None:
    """Swallow the rest of an over-bound frame, for at most a second.

    Closing a socket with unread input resets the connection, which can
    destroy the error frame before the peer reads it and fails a peer that is
    still sending.
    """

    async def discard() -> None:
        while True:
            chunk = await reader.read(1 << 16)
            if not chunk or b"\n" in chunk:
                return

    try:
        await asyncio.wait_for(discard(), timeout=1.0)
    except (asyncio.TimeoutError, OSError):
        pass


def encode_observation(observation: Observation) -> dict:
    """Serialize a scheduling observation into the ``decide`` payload.

    The snapshot is complete (full per-job DAG structure and task counters),
    so the server can reconstruct — and incrementally reconcile — shadow job
    DAGs without ever seeing the client's simulator.  Static fields
    (``edges``, ``num_tasks``, ``task_duration``) are only *read* by the
    server the first time a job id appears; later snapshots of the same job
    only refresh the runtime counters.
    """
    jobs = []
    for job in observation.job_dags:
        jobs.append(
            {
                "job_id": int(job.job_id),
                "name": job.name,
                "arrival_time": float(job.arrival_time),
                "edges": [[int(src), int(dst)] for src, dst in job.edges],
                "nodes": [
                    {
                        "node_id": int(node.node_id),
                        "num_tasks": int(node.num_tasks),
                        "task_duration": float(node.task_duration),
                        "num_finished_tasks": int(node.num_finished_tasks),
                        "num_running_tasks": int(node.num_running_tasks),
                        "next_task_index": int(node.next_task_index),
                    }
                    for node in job.nodes
                ],
            }
        )
    return {
        "version": PROTOCOL_VERSION,
        "wall_time": float(observation.wall_time),
        "num_free_executors": int(observation.num_free_executors),
        "total_executors": int(observation.total_executors),
        "num_jobs_in_system": int(observation.num_jobs_in_system),
        "source_job": (
            int(observation.source_job.job_id)
            if observation.source_job is not None
            else None
        ),
        "jobs": jobs,
        "schedulable": [
            [int(node.job.job_id), int(node.node_id)]
            for node in observation.schedulable_nodes
        ],
    }
