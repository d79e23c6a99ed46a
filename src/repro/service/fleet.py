"""The serving fleet: N shard processes behind one router front.

A *shard* is one OS process running a
:class:`~repro.service.server.PolicyServer` with its **own** agent
(rebuilt from a picklable :class:`~repro.core.checkpoints.AgentSpec` + state
dict, the same mechanism the rollout worker pool uses) and its own request
broker — so shards share nothing and scale with cores, not threads.
:class:`ServingFleet` starts the shards as a
:class:`~repro.core.parallel.PipeWorkerPool`, asks each to ``start`` and
report its bound port, then fronts them with a
:class:`~repro.service.router.ShardRouter` (session hashing, admission
control, control plane).

Clients are oblivious: they speak the exact same protocol to the router's
address that they would to a single :class:`PolicyServer`.  Decisions are
bit-identical to a single server at fixed seeds because a session's decisions
depend only on its own rng/cache/observations and every shard hosts an
identically-parameterised agent (pinned by the ``sharded_vs_serial_service``
differential pair).
"""

from __future__ import annotations

from typing import Optional

from ..core.agent import DecimaAgent
from ..core.checkpoints import AgentSpec, agent_spec, build_agent
from ..core.parallel import PipeWorkerPool
from .router import ShardRouter

__all__ = ["ServingFleet", "SHARD_COMMANDS"]

# The :class:`PolicyServer` methods the parent may call over a shard's pipe: a
# shard command *is* the method name.  ``start`` answers the bound address;
# the rest is the learning-target surface plus the ``stats`` reply.
SHARD_COMMANDS = (
    "start",
    "stats_payload",
    "broker_stats",
    "record_experience",
    "drain_experience",
    "install_policy",
)


def _shard_worker(spec: AgentSpec, state, host: str, server_kwargs: dict) -> dict:
    """A shard: one :class:`PolicyServer` on its own agent, stopped on close."""
    from .server import PolicyServer

    server = PolicyServer(build_agent(spec, state), host=host, port=0, **server_kwargs)
    commands = {name: getattr(server, name) for name in SHARD_COMMANDS}
    commands["close"] = server.stop
    return commands


class ServingFleet:
    """Spawn shard server processes and front them with a router.

    Besides serving, a started fleet is a learning target: it answers the
    same ``served_policy`` / ``record_experience`` / ``drain_experience`` /
    ``install_policy`` / ``broker_stats`` / ``report_learning`` calls as a
    :class:`~repro.service.batcher.RequestBroker`, each one broadcast to the
    shards.  A dead shard (fault-injected kill) is left out of the answer
    instead of raising — learning must keep working around a lost shard
    exactly as serving does.
    """

    def __init__(
        self,
        agent: DecimaAgent,
        num_shards: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        control_port: int = 0,
        max_sessions: Optional[int] = None,
        **server_kwargs,
    ):
        if num_shards < 1:
            raise ValueError("a fleet needs at least one shard")
        self._spec = agent_spec(agent)
        self._state = agent.state_dict()
        self.num_shards = int(num_shards)
        self.host = host
        self.port = int(port)
        self.control_port = int(control_port)
        self.max_sessions = max_sessions
        self.server_kwargs = dict(server_kwargs)
        self._pool: Optional[PipeWorkerPool] = None
        self.shard_addresses: list = []
        self.router: Optional[ShardRouter] = None

    # -------------------------------------------------------------- lifecycle
    def _started_router(self) -> ShardRouter:
        if self.router is None:
            raise RuntimeError("fleet is not started")
        return self.router

    @property
    def address(self) -> tuple:
        """The router's data-plane ``(host, port)``."""
        return self._started_router().address

    @property
    def control_address(self) -> tuple:
        """The router's control-plane ``(host, port)``."""
        return self._started_router().control_address

    @property
    def processes(self) -> list:
        """The shard processes, by shard index (empty unless started)."""
        return [] if self._pool is None else self._pool.processes

    def start(self) -> tuple:
        if self._pool is not None:
            raise RuntimeError("fleet already started")
        # Each shard names itself in telemetry (spans, flight dumps,
        # structured logs) so fleet-wide scrapes stay attributable.
        self._pool = PipeWorkerPool(
            self.num_shards,
            _shard_worker,
            lambda index: (
                self._spec,
                self._state,
                self.host,
                dict(self.server_kwargs, service_name=f"shard-{index}"),
            ),
            description="policy shard",
        )
        try:
            addresses = self._pool.run("start", [()] * self.num_shards, timeout=60.0)
            self.shard_addresses = [tuple(address) for address in addresses]
            self.router = ShardRouter(
                self.shard_addresses,
                host=self.host,
                port=self.port,
                control_port=self.control_port,
                max_sessions=self.max_sessions,
                flight_dir=self.server_kwargs.get("flight_dir"),
                flight_capacity=self.server_kwargs.get("flight_capacity", 512),
                trace_capacity=self.server_kwargs.get("trace_capacity", 256),
            )
            self.router.start()
        except Exception:
            self.stop()
            raise
        return self.router.address

    def stop(self) -> None:
        if self._pool is None:
            return
        if self.router is not None:
            try:
                self.router.stop()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
            self.router = None
        self._pool.close()
        self._pool = None
        self.shard_addresses = []

    def __enter__(self) -> "ServingFleet":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -------------------------------------------------------- learning target
    def _broadcast(self, command: str, *args) -> list:
        """Call one :data:`SHARD_COMMANDS` method on every shard at once;
        one ``(status, value)`` per shard, ``"ok"`` from those that answered."""
        if self._pool is None:
            raise RuntimeError("fleet is not started")
        return self._pool.ask(command, [args] * self.num_shards, timeout=30.0)

    def served_policy(self) -> tuple[AgentSpec, dict, int]:
        """The architecture, weights and policy version the shards start on
        (every shard constructs its broker at version 1)."""
        return self._spec, self._state, 1

    def record_experience(self) -> None:
        """Have every shard record its answered requests from now on."""
        self._broadcast("record_experience")

    def drain_experience(self) -> list:
        """Collect and clear every live shard's recorded experience steps."""
        return [
            step
            for status, steps in self._broadcast("drain_experience")
            if status == "ok"
            for step in steps
        ]

    def install_policy(self, state: dict, version: int) -> int:
        """Stage a hot-swap on every live shard; return the ack count.

        An ack means *delivered and staged* — each shard applies the swap
        atomically at its next decision round, so sessions in flight when the
        install lands are answered by the old weights and never dropped.
        """
        outcomes = self._broadcast("install_policy", state, int(version))
        return sum(status == "ok" for status, _ in outcomes)

    def shard_stats(self) -> list:
        """Per-shard ``stats`` replies over the command channel (None = dead)."""
        return [
            value if status == "ok" else None
            for status, value in self._broadcast("stats_payload")
        ]

    def broker_stats(self) -> list[dict]:
        """One ``broker`` stats section per live shard."""
        return [
            section
            for status, sections in self._broadcast("broker_stats")
            if status == "ok"
            for section in sections
        ]

    def report_learning(self, reader) -> None:
        """Show the manager's report in the control plane's ``stats`` reply."""
        self._started_router().learning_info = reader

    @property
    def metrics(self):
        """The router's registry, ``None`` while stopped (each shard's own is
        scraped over the control plane)."""
        return None if self.router is None else self.router.metrics

    @property
    def flight(self):
        """The router's flight recorder, ``None`` while stopped."""
        return None if self.router is None else self.router.flight

    # ------------------------------------------------------------------ faults
    def kill_shard(self, index: int) -> None:
        """Fault injection: hard-kill one shard process (SIGKILL, no cleanup)."""
        if not 0 <= index < len(self.processes):
            raise IndexError(f"no shard {index}")
        process = self.processes[index]
        process.kill()
        process.join(timeout=10.0)
