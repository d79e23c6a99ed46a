"""One construction story for every serving topology.

:class:`ServingConfig` is the single declarative description of a deployment
— shard count, admission limit, SLO window, batch window, checkpoint store
path — so no caller (examples, the test factory, CI smoke scripts)
hand-assembles a kwarg dict, and :func:`build_server` turns it into the right
topology:

* ``num_shards == 1`` → one in-process
  :class:`~repro.service.server.PolicyServer`;
* ``num_shards > 1`` → a :class:`~repro.service.fleet.ServingFleet` whose
  shard processes each run the same :class:`PolicyServer`.

The agent can be passed in directly or loaded from ``checkpoint_dir`` (a
:class:`~repro.core.checkpoints.CheckpointStore` directory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..core.agent import DecimaAgent
from ..core.checkpoints import CheckpointStore

__all__ = ["ServingConfig", "build_server"]


@dataclass
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
    breach_threshold: int = 3
    cooldown_decisions: int = 20
    greedy: bool = True
    max_batch_size: int = 64
    batch_window_ms: float = 2.0
    # Agent sourcing.
    checkpoint_dir: Optional[str] = None
    # Observability (see docs/OBSERVABILITY.md): where flight-recorder dumps
    # are written (None = in-memory only, or the DECIMA_FLIGHT_DIR env), how
    # many events each recorder ring holds, and how many traces each span
    # store retains.
    flight_dir: Optional[str] = None
    flight_capacity: int = 512
    trace_capacity: int = 256

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")

    def server_kwargs(self) -> dict:
        """The per-server keyword set shared by a single server and shards."""
        return {
            "fallback": self.fallback,
            "slo_ms": self.slo_ms,
            "breach_threshold": self.breach_threshold,
            "cooldown_decisions": self.cooldown_decisions,
            "greedy": self.greedy,
            "max_batch_size": self.max_batch_size,
            "batch_window_ms": self.batch_window_ms,
            "flight_dir": self.flight_dir,
            "flight_capacity": self.flight_capacity,
            "trace_capacity": self.trace_capacity,
        }

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
    ``start()/stop()`` and context-manager lifecycle.
    """
    from .fleet import ServingFleet
    from .server import PolicyServer

    agent = config.resolve_agent(agent)
    if config.num_shards > 1:
        return ServingFleet(
            agent,
            num_shards=config.num_shards,
            host=config.host,
            port=config.port,
            control_port=config.control_port,
            max_sessions=config.max_sessions,
            **config.server_kwargs(),
        )
    return PolicyServer(
        agent, host=config.host, port=config.port, **config.server_kwargs()
    )
