"""The serving fleet: N shard processes behind one router front.

A *shard* is one OS process running a
:class:`~repro.service.server.PolicyServer` with its **own** agent
(rebuilt from a picklable :class:`~repro.core.checkpoints.AgentSpec` + state
dict, the same mechanism the rollout worker pool uses) and its own request
broker — so shards share nothing and scale with cores, not threads.
:class:`ServingFleet` spawns the shards, waits for each to report its bound
port, then fronts them with a :class:`~repro.service.router.ShardRouter`
(session hashing, admission control, control plane).

Clients are oblivious: they speak the exact same protocol to the router's
address that they would to a single :class:`PolicyServer`.  Decisions are
bit-identical to a single server at fixed seeds because a session's decisions
depend only on its own rng/cache/observations and every shard hosts an
identically-parameterised agent (pinned by the ``sharded_vs_serial_service``
differential pair).
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from typing import Optional

from ..core.agent import DecimaAgent
from ..core.checkpoints import AgentSpec, agent_spec, build_agent
from .router import ShardRouter

__all__ = ["ServingFleet"]


def _shard_main(
    connection,
    spec: AgentSpec,
    state,
    host: str,
    server_kwargs: dict,
    collect_experience: bool = False,
):
    """Entry point of one shard process: serve until the parent says stop.

    After the ready handshake the pipe becomes the shard's command channel
    (the online-learning control path):

    * ``("stop",)`` — shut down;
    * ``("install", state, version)`` — stage a policy hot-swap, ack with
      ``("installed", version)`` (the swap applies at the next decision);
    * ``("stats",)`` — reply ``("stats", payload)`` with the server's own
      ``stats`` reply (:meth:`PolicyServer.stats_payload`);
    * ``("drain",)`` — reply ``("experience", [...])`` with the experience
      steps collected since the last drain (empty unless the shard was
      started with ``collect_experience``).
    """
    from .server import PolicyServer

    agent = build_agent(spec, state)
    server = PolicyServer(agent, host=host, port=0, **server_kwargs)
    collector = None
    if collect_experience:
        from ..learning.buffer import ExperienceCollector

        collector = ExperienceCollector()
        server.broker.decision_tap = collector
    try:
        address = server.start()
    except Exception as error:  # noqa: BLE001 - parent needs the reason
        connection.send(("error", repr(error)))
        return
    connection.send(("ready", address))
    try:
        while True:
            try:
                command = connection.recv()
            except (EOFError, OSError):
                break  # parent died
            kind = command[0] if isinstance(command, tuple) and command else None
            if kind == "stop":
                break
            try:
                if kind == "install":
                    _, new_state, version = command
                    server.install_policy(new_state, version)
                    connection.send(("installed", int(version)))
                elif kind == "stats":
                    connection.send(("stats", server.stats_payload(None)))
                elif kind == "drain":
                    steps = collector.drain() if collector is not None else []
                    connection.send(("experience", steps))
                else:
                    connection.send(("error", f"unknown shard command {command!r}"))
            except Exception as error:  # noqa: BLE001 - keep the shard alive
                connection.send(("error", repr(error)))
    finally:
        server.stop()
        connection.close()


class ServingFleet:
    """Spawn shard server processes and front them with a router."""

    def __init__(
        self,
        agent: DecimaAgent,
        num_shards: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        control_port: int = 0,
        max_sessions: Optional[int] = None,
        start_method: Optional[str] = None,
        collect_experience: bool = False,
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
        self.collect_experience = bool(collect_experience)
        self.server_kwargs = dict(server_kwargs)
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._context = mp.get_context(start_method)
        self.processes: list = []
        self._connections: list = []
        self.shard_addresses: list = []
        self.router: Optional[ShardRouter] = None
        self._running = False
        # The shard pipes double as the command channel (install/stats/
        # drain); commands are strict request/reply, so serialize them.
        self._pipe_lock = threading.Lock()

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple:
        """The router's data-plane ``(host, port)``."""
        if self.router is None:
            raise RuntimeError("fleet is not started")
        return self.router.address

    @property
    def control_address(self) -> tuple:
        """The router's control-plane ``(host, port)``."""
        if self.router is None:
            raise RuntimeError("fleet is not started")
        return self.router.control_address

    def start(self) -> tuple:
        if self._running:
            raise RuntimeError("fleet already started")
        try:
            for index in range(self.num_shards):
                parent_conn, child_conn = self._context.Pipe()
                # Each shard names itself in telemetry (spans, flight dumps,
                # structured logs) so fleet-wide scrapes stay attributable.
                shard_kwargs = dict(
                    self.server_kwargs, service_name=f"shard-{index}"
                )
                process = self._context.Process(
                    target=_shard_main,
                    args=(child_conn, self._spec, self._state, self.host,
                          shard_kwargs, self.collect_experience),
                    name=f"policy-shard-{index}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self.processes.append(process)
                self._connections.append(parent_conn)
            for index, connection in enumerate(self._connections):
                if not connection.poll(timeout=60.0):
                    raise RuntimeError(f"shard {index} did not come up in time")
                status, payload = connection.recv()
                if status != "ready":
                    raise RuntimeError(f"shard {index} failed to start: {payload}")
                self.shard_addresses.append(tuple(payload))
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
            self._teardown()
            raise
        self._running = True
        return self.router.address

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._teardown()

    def _teardown(self) -> None:
        if self.router is not None:
            try:
                self.router.stop()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
            self.router = None
        for connection in self._connections:
            try:
                connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass  # shard already dead (e.g. fault-injection killed it)
        for process in self.processes:
            process.join(timeout=10.0)
        for process in self.processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for connection in self._connections:
            try:
                connection.close()
            except OSError:
                pass
        self.processes.clear()
        self._connections.clear()
        self.shard_addresses.clear()

    def __enter__(self) -> "ServingFleet":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ----------------------------------------------------------- control path
    def _command(self, payload, expect: str, timeout: float = 30.0) -> list:
        """Send one command to every live shard; collect per-shard replies.

        Dead shards (fault-injected kills) yield ``None`` instead of raising
        — learning must keep working around a lost shard exactly as serving
        does.
        """
        replies: list = []
        with self._pipe_lock:
            for index, connection in enumerate(self._connections):
                process = self.processes[index]
                if not process.is_alive():
                    replies.append(None)
                    continue
                try:
                    connection.send(payload)
                    if not connection.poll(timeout=timeout):
                        replies.append(None)
                        continue
                    status, value = connection.recv()
                except (BrokenPipeError, EOFError, OSError):
                    replies.append(None)
                    continue
                replies.append(value if status == expect else None)
        return replies

    def install_policy(self, state: dict, version: int) -> int:
        """Stage a hot-swap on every live shard; return the ack count.

        An ack means *delivered and staged* — each shard applies the swap
        atomically at its next decision round, so sessions in flight when the
        install lands are answered by the old weights and never dropped.
        """
        acks = self._command(("install", state, int(version)), expect="installed")
        return sum(1 for ack in acks if ack is not None)

    def shard_stats(self) -> list:
        """Per-shard ``stats`` replies over the command channel (None = dead)."""
        return self._command(("stats",), expect="stats")

    def drain_experience(self) -> list:
        """Collect and clear every live shard's recorded experience steps."""
        drained = self._command(("drain",), expect="experience")
        steps: list = []
        for shard_steps in drained:
            if shard_steps:
                steps.extend(shard_steps)
        return steps

    # ------------------------------------------------------------------ faults
    def kill_shard(self, index: int) -> None:
        """Fault injection: hard-kill one shard process (SIGKILL, no cleanup)."""
        if not 0 <= index < len(self.processes):
            raise IndexError(f"no shard {index}")
        process = self.processes[index]
        process.kill()
        process.join(timeout=10.0)
