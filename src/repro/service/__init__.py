"""Policy-serving subsystem: serve a trained Decima agent to many clusters.

The training/evaluation side of this repo exercises the policy inside offline
episodes; this package turns the same agent into a **long-lived scheduling
service**.  Many concurrent *cluster sessions* (each a client cluster with
its own jobs, rng stream and incremental graph cache) connect over a
newline-delimited-JSON TCP protocol; a request broker coalesces their pending
observations into one disconnected mega-graph and answers them with a single
batched GNN forward — with the documented guarantee that batching never
changes any session's decisions.  A per-request latency SLO guards the policy
path: when it breaches, a circuit-breaker temporarily routes decisions to the
session's registered fallback heuristic (any name in the scheduler registry)
so clusters keep scheduling.

Beyond the single-process server, the package scales out as a **sharded
fleet**: N :class:`PolicyServer` shard processes (each with its own
agent + broker) behind a :class:`ShardRouter` front that hashes sessions to
shards, applies admission control under overload, and exposes a control-plane
endpoint (health / per-shard SLO stats / live reconfiguration).
:class:`ServingFleet` wires the whole topology up with one call.  Router→shard
dispatch stays bit-identical to single-server serial dispatch at fixed seeds
(the ``sharded_vs_serial_service`` differential pair).

Layers (see ``docs/ARCHITECTURE.md``, "Serving layer"):

* :mod:`~repro.service.protocol` — the wire format (observation snapshots in,
  actions out);
* :mod:`~repro.service.session`  — per-cluster shadow job DAGs + policy state;
* :mod:`~repro.service.batcher`  — cross-session batching, the adaptive batch
  window and the SLO breaker;
* :mod:`~repro.service.server`   — the one server: sessions, handlers and the
  dispatch coroutine on one asyncio loop;
* :mod:`~repro.service.router` / :mod:`~repro.service.fleet` — the sharded
  fleet: session-hashing router, admission control, control plane, shard
  process management;
* :mod:`~repro.service.client`  — the synchronous session + control clients
  (plus the episode driver);
* :mod:`~repro.service.loadgen`  — the synthetic multi-session load generator.
"""

from .batcher import (
    AdaptiveBatchWindow,
    CircuitBreaker,
    DecisionRequest,
    DecisionResult,
    RequestBroker,
)
from .client import ControlClient, PolicyClient, decode_action, drive_episode
from .config import ServingConfig, build_server
from .fleet import ServingFleet
from .loadgen import run_load
from .protocol import (
    ProtocolError,
    encode_message,
    encode_observation,
    read_message,
    write_message,
)
from .router import ShardRouter, ShardState, shard_for_session
from .server import PolicyServer
from .session import SessionState

__all__ = [
    "AdaptiveBatchWindow",
    "CircuitBreaker",
    "ControlClient",
    "DecisionRequest",
    "DecisionResult",
    "RequestBroker",
    "PolicyClient",
    "decode_action",
    "drive_episode",
    "run_load",
    "ProtocolError",
    "ServingConfig",
    "ServingFleet",
    "build_server",
    "ShardRouter",
    "ShardState",
    "shard_for_session",
    "encode_message",
    "encode_observation",
    "read_message",
    "write_message",
    "PolicyServer",
    "SessionState",
]
