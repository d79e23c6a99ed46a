"""One construction story for every serving topology.

:class:`ServingConfig` is the one declaration of a deployment's settings and
their defaults — shard count, addresses, admission limit, fallback, SLO,
sampling mode, checkpoint store, flight-dump directory.  The server, the
fleet and the router each take the config itself, not a copy of its fields,
and it is validated once, here, in the caller's process: a bad ``fallback``
or ``slo_ms`` fails at ``ServingConfig(...)`` for one shard or many.
:func:`build_server` turns it into the right topology:

* ``num_shards == 1`` → one in-process
  :class:`~repro.service.server.PolicyServer`;
* ``num_shards > 1`` → a :class:`~repro.service.fleet.ServingFleet` whose
  shard processes each run the same :class:`PolicyServer`.

``max_sessions`` and ``control_port`` belong to the fleet's router; a single
server has neither admission control nor a control plane, so
:func:`build_server` refuses them with one shard.

What no deployment varies is a constant where it is used, not a field: the
batch size cap and the batch window's maximum (``server.py``), the breaker's
breach threshold and cooldown (:class:`~repro.service.batcher.CircuitBreaker`),
the flight-ring and span-store capacities
(:class:`~repro.obs.FlightRecorder`, :class:`~repro.obs.SpanStore`) and the
router's connect and probe timeouts (:class:`~repro.service.router.ShardRouter`).

The agent can be passed in directly or loaded from ``checkpoint_dir`` (a
:class:`~repro.core.checkpoints.CheckpointStore` directory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..core.agent import DecimaAgent
from ..core.checkpoints import CheckpointStore
from ..schedulers import scheduler_names

__all__ = ["ServingConfig", "build_server"]


@dataclass(frozen=True)
class ServingConfig:
    """Declarative description of a policy-serving deployment."""

    # Topology.
    num_shards: int = 1
    host: str = "127.0.0.1"
    port: int = 0
    control_port: int = 0  # fleet only: the router's control plane listener
    max_sessions: Optional[int] = None  # fleet only: admission limit
    # Decision path.
    fallback: str = "fifo"
    slo_ms: Optional[float] = None
    greedy: bool = True
    # Agent sourcing.
    checkpoint_dir: Optional[str] = None
    # Where flight-recorder dumps are written (None = in-memory only, or the
    # DECIMA_FLIGHT_DIR env; see docs/OBSERVABILITY.md).
    flight_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.fallback not in scheduler_names():
            known = ", ".join(scheduler_names())
            raise KeyError(
                f"unknown fallback scheduler {self.fallback!r}; known: {known}"
            )
        if self.slo_ms is not None and not self.slo_ms > 0:
            raise ValueError(f"slo_ms must be positive, got {self.slo_ms!r}")

    def resolve_agent(self, agent: Optional[DecimaAgent] = None) -> DecimaAgent:
        """The agent this deployment serves.

        Falls back to the ``checkpoint_dir`` store's latest version when no
        agent is passed.
        """
        if agent is None:
            if self.checkpoint_dir is None:
                raise ValueError(
                    "pass an agent or set checkpoint_dir so one can be loaded"
                )
            agent = CheckpointStore(self.checkpoint_dir).load()
        return agent


def build_server(
    config: ServingConfig, agent: Optional[DecimaAgent] = None
) -> Union["PolicyServer", "ServingFleet"]:
    """Construct (but do not start) the deployment ``config`` describes.

    Returns a :class:`PolicyServer` or :class:`ServingFleet`; both share the
    ``start()/stop()`` and context-manager lifecycle.  A one-shard config
    that sets a router-only field (``max_sessions``, a non-zero
    ``control_port``) is refused rather than served without it.
    """
    from .fleet import ServingFleet
    from .server import PolicyServer

    if config.num_shards > 1:
        return ServingFleet(config.resolve_agent(agent), config)
    router_only = [
        name
        for name, is_set in (
            ("max_sessions", config.max_sessions is not None),
            ("control_port", config.control_port != 0),
        )
        if is_set
    ]
    if router_only:
        raise ValueError(
            f"{' and '.join(router_only)} set with num_shards=1: a single "
            "server has no admission control and no control plane"
        )
    return PolicyServer(config.resolve_agent(agent), config)
