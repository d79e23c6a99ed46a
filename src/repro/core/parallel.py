"""Pluggable rollout backends: serial in-process and parallel worker-pool.

The paper trains Decima with 16 parallel rollout workers that collect the
``N`` same-arrival-sequence episodes of every iteration concurrently
(§5.3, Algorithm 1).  This module provides that master/worker split for
:class:`~repro.core.reinforce.ReinforceTrainer`:

* :class:`SerialRolloutBackend` collects episodes one after another in the
  training process.  Its random-number consumption order is exactly that of
  the original single-process trainer, so fixed-seed runs are bit-identical.
* :class:`ParallelRolloutBackend` owns a persistent
  :class:`RolloutWorkerPool` of worker processes.  Each iteration the master
  serializes the agent's parameters (the ``state_dict`` machinery from
  :mod:`repro.core.checkpoints`), ships per-episode job sequences and seeds
  to the workers, and gets back :class:`EpisodeOutcome` records that contain
  only plain numpy arrays.  The per-episode policy-gradient passes run
  *inside* the worker that collected the episode (it still holds the
  episode's decision records), and only numpy gradient arrays travel back to
  the master, which averages them and applies the Adam update — the paper's
  Algorithm 1 split.

Neither backend keeps an autograd graph between the two phases: rollouts
decide on the inference data path and keep one plain-numpy
:class:`~repro.core.agent.ActionRecord` per decision; once the advantages are
known, :func:`accumulate_episode_gradients` re-scores the records in merged
chunks (:func:`~repro.core.rollout.accumulate_record_gradients`) and then
releases them.

Episode results are deterministic functions of the trainer seed: the master
draws one environment seed and one action-sampling seed per episode, and each
worker builds a fresh ``np.random.Generator`` from the episode's action seed.
Parallel training therefore produces identical results regardless of how many
workers the episodes are spread over (though it intentionally differs from
the serial stream, which interleaves episode collection with seed draws).
"""

from __future__ import annotations

import abc
import ctypes
import multiprocessing as mp
import os
import threading
import traceback
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from ..simulator.environment import SchedulingEnvironment, SimulatorConfig
from ..simulator.jobdag import JobDAG
from .agent import DecimaAgent
from .checkpoints import AgentSpec, agent_spec, build_agent
from .rollout import Trajectory, accumulate_record_gradients, collect_rollout

__all__ = [
    "EpisodeSpec",
    "EpisodeOutcome",
    "IterationPlan",
    "RolloutBackend",
    "SerialRolloutBackend",
    "ParallelRolloutBackend",
    "PipeWorkerPool",
    "RolloutWorkerPool",
    "single_threaded_blas",
    "episode_environment",
    "accumulate_episode_gradients",
    "outcome_from_trajectory",
]

JobFactory = Callable[[np.random.Generator], "list[JobDAG]"]


# --------------------------------------------------------------------- payloads
@dataclass
class EpisodeSpec:
    """Everything a worker needs to collect one episode (picklable)."""

    jobs: list[JobDAG]
    episode_time: float
    env_seed: int
    action_seed: int  # seeds the episode's own action-sampling generator
    max_actions: Optional[int] = None


@dataclass
class EpisodeOutcome:
    """Plain-numpy record of one collected episode (no autograd tensors).

    ``num_finished_jobs``/``average_jct`` are ``None`` when the episode has no
    simulation result / no finished jobs, mirroring how the trainer's
    iteration statistics skip those episodes.
    """

    rewards: np.ndarray
    wall_times: np.ndarray
    num_finished_jobs: Optional[int] = None
    average_jct: Optional[float] = None

    @property
    def num_actions(self) -> int:
        return int(len(self.rewards))

    @property
    def total_reward(self) -> float:
        return float(self.rewards.sum()) if self.rewards.size else 0.0


@dataclass
class IterationPlan:
    """One training iteration's worth of episode collection."""

    num_episodes: int
    episode_time: float
    make_jobs: JobFactory
    max_actions: Optional[int] = None


def outcome_from_trajectory(trajectory: Trajectory) -> EpisodeOutcome:
    """Strip a trajectory down to its picklable numpy payload."""
    result = trajectory.result
    num_finished = len(result.finished_jobs) if result is not None else None
    average_jct = (
        float(result.average_jct) if result is not None and result.finished_jobs else None
    )
    return EpisodeOutcome(
        rewards=trajectory.rewards(),
        wall_times=trajectory.wall_times(),
        num_finished_jobs=num_finished,
        average_jct=average_jct,
    )


# ------------------------------------------------------------- episode running
def episode_environment(
    simulator_config: SimulatorConfig, episode_time: float
) -> SchedulingEnvironment:
    """A training episode's simulator: the cluster cut off at ``episode_time``."""
    return SchedulingEnvironment(replace(simulator_config, max_time=episode_time))


def accumulate_episode_gradients(
    agent: DecimaAgent,
    trajectories: list[Trajectory],
    advantages: list[np.ndarray],
    entropy_weight: float,
) -> list[Optional[np.ndarray]]:
    """Re-score and backward-pass every episode; return per-parameter gradient sums.

    Consumes ``trajectories``: the list is emptied and the agent's graph cache
    (which pins the iteration's job DAGs) reset before returning, so whoever
    collected the episodes — the serial backend or a worker loop — holds
    nothing of the iteration once its gradients are out.
    """
    agent.zero_grad()
    for trajectory, episode_advantages in zip(trajectories, advantages):
        accumulate_record_gradients(
            agent,
            [transition.record for transition in trajectory.transitions],
            episode_advantages,
            entropy_weight,
        )
    trajectories.clear()
    agent.reset_graph_cache()
    return [parameter.grad for parameter in agent.parameters()]


# -------------------------------------------------------------------- backends
class RolloutBackend(abc.ABC):
    """Strategy for collecting an iteration's episodes and their gradients.

    The trainer first calls :meth:`collect`, computes baselines and advantages
    from the returned numpy payloads, then calls :meth:`compute_gradients` for
    the matching backward passes.  Gradients are *summed* over episodes; the
    trainer divides by the episode count before the optimizer step.
    """

    @abc.abstractmethod
    def collect(
        self,
        agent: DecimaAgent,
        simulator_config: SimulatorConfig,
        plan: IterationPlan,
        rng: np.random.Generator,
    ) -> list[EpisodeOutcome]:
        """Collect ``plan.num_episodes`` episodes with the agent's current weights."""

    @abc.abstractmethod
    def compute_gradients(
        self,
        agent: DecimaAgent,
        advantages: list[np.ndarray],
        entropy_weight: float,
    ) -> list[Optional[np.ndarray]]:
        """Per-parameter gradient sums for the episodes of the last collect()."""

    def close(self) -> None:
        """Release any resources (worker processes); safe to call twice."""

    def __enter__(self) -> "RolloutBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialRolloutBackend(RolloutBackend):
    """Single-process episode collection, bit-identical to the original trainer.

    The trainer's generator is consumed in exactly the historical order —
    jobs, environment seed, then the action sampling of the episode itself —
    so fixed-seed training runs reproduce the pre-backend behaviour exactly.
    """

    name = "serial"

    def __init__(self) -> None:
        self._trajectories: list[Trajectory] = []

    def collect(
        self,
        agent: DecimaAgent,
        simulator_config: SimulatorConfig,
        plan: IterationPlan,
        rng: np.random.Generator,
    ) -> list[EpisodeOutcome]:
        self._trajectories = []
        for _ in range(plan.num_episodes):
            jobs = plan.make_jobs(rng)
            seed = int(rng.integers(0, 2**31 - 1))
            trajectory = collect_rollout(
                episode_environment(simulator_config, plan.episode_time),
                agent,
                jobs,
                rng=rng,
                seed=seed,
                max_actions=plan.max_actions,
            )
            self._trajectories.append(trajectory)
        return [outcome_from_trajectory(t) for t in self._trajectories]

    def compute_gradients(
        self,
        agent: DecimaAgent,
        advantages: list[np.ndarray],
        entropy_weight: float,
    ) -> list[Optional[np.ndarray]]:
        return accumulate_episode_gradients(
            agent, self._trajectories, advantages, entropy_weight
        )


# ----------------------------------------------------------------- worker pool
# Names of OpenBLAS's thread-count setter: numpy >= 1.26 wheels (symbol-prefixed
# ILP64 build), older ILP64 wheels, a system OpenBLAS.
_OPENBLAS_SET_NUM_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def single_threaded_blas() -> int:
    """Limit every OpenBLAS loaded into this process to one thread.

    Worker processes are the parallelism; a BLAS thread pool per worker only
    oversubscribes the cores, and OpenBLAS's idle threads spin.  The matrices
    here are 8-32 wide, so BLAS threads never pay even alone — but a merged
    replay chunk (or a few-hundred-node graph) has enough rows to switch them
    on, which measured 6x on a worker's gradient phase (2 workers, 2 cores).
    ``OPENBLAS_NUM_THREADS`` is read when the library loads, too early for a
    forked worker, hence the call into the library.  Best effort: returns the
    number of libraries limited, 0 where none is found (other BLAS, other OS).
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return 0
    limited = 0
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_SET_NUM_THREADS:
            setter = getattr(library, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                limited += 1
                break
    return limited


def _serve(connection, parent_end, worker: Callable[..., dict], args: tuple) -> None:
    """Body of every pool process: the one loop that reads a worker's pipe.

    ``worker(*args)`` builds the process's state and returns its
    ``{command: callable}`` table.  Each ``(ticket, command, payload)``
    request is answered with ``(ticket, "ok", table[command](*payload))`` or
    ``(ticket, "error", traceback)`` — an exception in a handler, an unknown
    command or an unpicklable result is an answer, and the loop keeps serving.
    It ends on ``close`` or when the parent is gone; either way the table's
    own ``"close"`` entry, if it has one, runs last (a shard stops its server
    there).  A ``worker(*args)`` that raises leaves no table: every request
    is then answered with that set-up traceback, so the parent's error names
    the cause instead of a worker that died without replying.
    """
    # This process's copy of the parent's end: while it is open the pipe
    # never reads EOF, and a worker whose parent was killed would live on.
    parent_end.close()
    single_threaded_blas()
    setup_failure = None
    try:
        handlers = worker(*args)
    except Exception:
        setup_failure = "set-up failed:\n" + traceback.format_exc()
        handlers = {}
    try:
        while True:
            try:
                ticket, command, payload = connection.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                return  # the parent died or closed its end
            if command == "close":
                return
            try:
                if setup_failure is not None:
                    connection.send((ticket, "error", setup_failure))
                elif command not in handlers:
                    raise ValueError(f"unknown worker command {command!r}")
                else:
                    connection.send((ticket, "ok", handlers[command](*payload)))
            except Exception:
                try:
                    connection.send((ticket, "error", traceback.format_exc()))
                except (BrokenPipeError, OSError):
                    return
    finally:
        handlers.get("close", lambda: None)()
        connection.close()


class PipeWorkerPool:
    """A persistent pool of pipe-connected worker processes.

    The only code that starts a process, reads a pipe or defines a reply
    shape: rollout workers, sweep workers, the online trainer and the serving
    fleet's shards are all this pool around a different ``worker`` function
    (see :func:`_serve`; ``worker_args(index)`` supplies each process's
    arguments).  Processes are forked where the platform can, spawned
    otherwise, and limit their BLAS to one thread on entry.

    :meth:`ask` is the request primitive and never raises on a worker's
    account; :meth:`run` and :meth:`map` turn anything but ``"ok"`` into one
    ``RuntimeError`` naming the workers.
    """

    def __init__(
        self,
        num_workers: int,
        worker: Callable[..., dict],
        worker_args: Callable[[int], tuple],
        description: str = "worker",
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        context = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
        self.num_workers = int(num_workers)
        self.description = description
        self.processes: list = []
        self._connections: list = []
        self._closed = False
        # Requests are strict request/reply per pipe and callers may sit on
        # different threads (a learning loop beside a stats reader).
        self._lock = threading.Lock()
        self._ticket = 0
        for index in range(self.num_workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_serve,
                args=(child_conn, parent_conn, worker, worker_args(index)),
                name=f"{description.replace(' ', '-')}-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self.processes.append(process)

    @property
    def is_alive(self) -> bool:
        return not self._closed and all(p.is_alive() for p in self.processes)

    def ask(
        self, command: str, payloads: Sequence[tuple], timeout: Optional[float] = None
    ) -> list[tuple[str, object]]:
        """Send ``payloads[i]`` to worker ``i``; one ``(status, value)`` each.

        ``"ok"`` carries the handler's result, ``"error"`` the child's
        traceback, ``"dead"`` why there is no answer: the pipe is broken, the
        process ended mid-request, or nothing came within ``timeout`` seconds
        (``None`` waits).  Every worker is sent to before any reply is read —
        the workers run concurrently — and every reply is read whatever
        happened to the others, so no answer stays queued to be mistaken for
        the next request's; a reply that does arrive after its timeout is
        recognised by its ticket and dropped.  Fewer payloads than workers
        asks only the first ``len(payloads)`` workers.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if len(payloads) > self.num_workers:
            raise ValueError(
                f"expected at most {self.num_workers} payloads, got {len(payloads)}"
            )
        with self._lock:
            self._ticket += 1
            outcomes: list = []
            for connection, payload in zip(self._connections, payloads):
                try:
                    connection.send((self._ticket, command, payload))
                    outcomes.append(None)
                except (BrokenPipeError, OSError):
                    outcomes.append(("dead", "is not running (broken pipe)"))
            for index, connection in enumerate(self._connections[: len(payloads)]):
                if outcomes[index] is None:
                    outcomes[index] = self._reply(connection, timeout)
        return outcomes

    def _reply(self, connection, timeout: Optional[float]) -> tuple[str, object]:
        try:
            while True:
                if timeout is not None and not connection.poll(timeout):
                    return "dead", f"did not reply within {timeout:g} s"
                ticket, status, value = connection.recv()
                if ticket == self._ticket:
                    return status, value
        except (EOFError, OSError):
            return "dead", "died without replying"

    def _values(self, outcomes: list) -> list:
        """The ``"ok"`` values, or one ``RuntimeError`` naming every other worker."""
        errors = [
            f"{self.description} {index} failed:\n{value}"
            if status == "error"
            else f"{self.description} {index} {value}"
            for index, (status, value) in enumerate(outcomes)
            if status != "ok"
        ]
        if errors:
            raise RuntimeError("\n".join(errors))
        return [value for _, value in outcomes]

    def run(
        self, command: str, payloads: Sequence[tuple], timeout: Optional[float] = None
    ) -> list:
        """Send one payload per worker, wait for and return every reply."""
        if len(payloads) != self.num_workers:
            raise ValueError(
                f"expected {self.num_workers} payloads, got {len(payloads)}"
            )
        return self._values(self.ask(command, payloads, timeout))

    def deal(self, items: Sequence) -> list[list]:
        """Round-robin ``items`` into one hand per worker."""
        return [
            list(items[worker :: self.num_workers])
            for worker in range(self.num_workers)
        ]

    def map(self, command: str, items: Sequence, *shared) -> list:
        """``command`` over ``items``, results in item order.

        Items are dealt round-robin, a worker is sent ``(hand, *shared)`` and
        answers one result per item of its hand (a worker left without a hand
        is not asked); re-interleaving makes the output independent of the
        worker count.
        """
        hands = [hand for hand in self.deal(items) if hand]
        replies = self._values(
            self.ask(command, [(hand, *shared) for hand in hands])
        )
        return [
            replies[index % self.num_workers][index // self.num_workers]
            for index in range(len(items))
        ]

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        if self._closed:
            return
        self._closed = True
        for connection in self._connections:
            try:
                connection.send((0, "close", ()))
            except (BrokenPipeError, OSError):
                pass  # already dead (e.g. fault injection killed it)
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

    def __enter__(self) -> "PipeWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:
            pass


def _rollout_worker(simulator_config: SimulatorConfig, spec: AgentSpec) -> dict:
    """A rollout worker: its own agent, and the episodes of its last ``collect``.

    * ``collect(episode_specs, state_dict, interarrival_hint)`` → one
      :class:`EpisodeOutcome` per spec.  The trajectories (with their decision
      records) stay here for the gradient phase.
    * ``gradients(advantages, entropy_weight)`` → per-parameter gradient sums
      (numpy arrays or ``None``) over those trajectories.
    """
    agent = build_agent(spec)
    trajectories: list[Trajectory] = []

    def collect(episode_specs, state, interarrival_hint):
        agent.load_state_dict(state)
        agent.interarrival_hint = interarrival_hint
        trajectories[:] = [
            collect_rollout(
                episode_environment(simulator_config, spec.episode_time),
                agent,
                spec.jobs,
                rng=np.random.default_rng(spec.action_seed),
                seed=spec.env_seed,
                max_actions=spec.max_actions,
            )
            for spec in episode_specs
        ]
        return [outcome_from_trajectory(t) for t in trajectories]

    def gradients(advantages, entropy_weight):
        return accumulate_episode_gradients(
            agent, trajectories, advantages, entropy_weight
        )

    return {"collect": collect, "gradients": gradients}


class RolloutWorkerPool(PipeWorkerPool):
    """A persistent pool of rollout worker processes (:func:`_rollout_worker`)."""

    def __init__(
        self, simulator_config: SimulatorConfig, spec: AgentSpec, num_workers: int
    ) -> None:
        super().__init__(
            num_workers,
            _rollout_worker,
            lambda index: (simulator_config, spec),
            description="rollout worker",
        )


class ParallelRolloutBackend(RolloutBackend):
    """Collect episodes on a persistent multiprocessing worker pool.

    ``num_workers`` defaults to the machine's CPU count (the paper uses 16
    workers).  The pool is created lazily on the first :meth:`collect` — it
    needs the agent's architecture — and reused across iterations; if it was
    closed (or a worker died), the next collect transparently restarts it.
    """

    name = "parallel"

    def __init__(self, num_workers: Optional[int] = None) -> None:
        if num_workers is None:
            num_workers = max(1, os.cpu_count() or 1)
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = int(num_workers)
        self._pool: Optional[RolloutWorkerPool] = None
        self._num_episodes = 0

    @property
    def pool(self) -> Optional[RolloutWorkerPool]:
        return self._pool

    def _ensure_pool(
        self, agent: DecimaAgent, simulator_config: SimulatorConfig
    ) -> RolloutWorkerPool:
        if self._pool is not None and not self._pool.is_alive:
            self._pool.close()
            self._pool = None
        if self._pool is None:
            self._pool = RolloutWorkerPool(
                simulator_config, agent_spec(agent), self.num_workers
            )
        return self._pool

    def collect(
        self,
        agent: DecimaAgent,
        simulator_config: SimulatorConfig,
        plan: IterationPlan,
        rng: np.random.Generator,
    ) -> list[EpisodeOutcome]:
        pool = self._ensure_pool(agent, simulator_config)
        specs = []
        for _ in range(plan.num_episodes):
            jobs = plan.make_jobs(rng)
            env_seed = int(rng.integers(0, 2**31 - 1))
            action_seed = int(rng.integers(0, 2**31 - 1))
            specs.append(
                EpisodeSpec(
                    jobs=jobs,
                    episode_time=plan.episode_time,
                    env_seed=env_seed,
                    action_seed=action_seed,
                    max_actions=plan.max_actions,
                )
            )
        self._num_episodes = len(specs)
        return pool.map("collect", specs, agent.state_dict(), agent.interarrival_hint)

    def compute_gradients(
        self,
        agent: DecimaAgent,
        advantages: list[np.ndarray],
        entropy_weight: float,
    ) -> list[Optional[np.ndarray]]:
        if self._pool is None or len(advantages) != self._num_episodes:
            raise RuntimeError("compute_gradients() requires a matching collect() first")
        # The same deal as collect's map: each worker gets the advantages of
        # the episodes it still holds.
        replies = self._pool.run(
            "gradients",
            [(hand, entropy_weight) for hand in self._pool.deal(advantages)],
        )
        totals: list[Optional[np.ndarray]] = [None] * len(agent.parameters())
        for worker_grads in replies:
            for index, grad in enumerate(worker_grads):
                if grad is None:
                    continue
                if totals[index] is None:
                    totals[index] = np.array(grad, dtype=np.float64)
                else:
                    totals[index] = totals[index] + grad
        return totals

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._num_episodes = 0
