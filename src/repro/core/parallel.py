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
import traceback
from dataclasses import dataclass, replace
from typing import Callable, Optional

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
    "run_episode",
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
    # Seed of the per-episode action-sampling generator.  ``None`` falls back
    # to the worker's own persistent generator (seeded per worker at startup),
    # at the cost of results depending on the episode-to-worker assignment.
    action_seed: Optional[int] = None
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
def run_episode(
    agent: DecimaAgent,
    simulator_config: SimulatorConfig,
    spec: EpisodeSpec,
    rng: Optional[np.random.Generator] = None,
    step_hook: Optional[Callable] = None,
) -> Trajectory:
    """Collect one episode described by ``spec`` (used by workers and tests).

    ``step_hook`` passes through to :func:`~repro.core.rollout.collect_rollout`
    — the verification harness's instrumentation seam.
    """
    if rng is None:
        if spec.action_seed is None:
            raise ValueError("EpisodeSpec.action_seed is required when no rng is given")
        rng = np.random.default_rng(spec.action_seed)
    environment = SchedulingEnvironment(
        replace(simulator_config, max_time=spec.episode_time)
    )
    return collect_rollout(
        environment,
        agent,
        spec.jobs,
        rng=rng,
        seed=spec.env_seed,
        max_actions=spec.max_actions,
        step_hook=step_hook,
    )


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
            environment = SchedulingEnvironment(
                replace(simulator_config, max_time=plan.episode_time)
            )
            seed = int(rng.integers(0, 2**31 - 1))
            trajectory = collect_rollout(
                environment,
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
def _worker_main(
    conn,
    simulator_config: SimulatorConfig,
    spec: AgentSpec,
    worker_seed: int,
) -> None:
    """Loop of one rollout worker process.

    Protocol (one ``(command, payload)`` tuple per message, reply is
    ``("ok", value)`` or ``("error", traceback)``):

    * ``collect``: payload ``(state_dict, interarrival_hint, [EpisodeSpec])``
      → list of :class:`EpisodeOutcome`.  Trajectories (with their decision
      records) stay in the worker for the gradient phase.  ``state_dict`` is
      ``None`` when the worker has no episodes this iteration.
    * ``gradients``: payload ``([advantages], entropy_weight)`` → list of
      per-parameter gradient sums (numpy arrays or ``None``).
    * ``close``: exit the loop.
    """
    agent = build_agent(spec)
    worker_rng = np.random.default_rng(worker_seed)
    trajectories: list[Trajectory] = []
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            return
        command, payload = message
        if command == "close":
            return
        try:
            if command == "collect":
                state, interarrival_hint, episode_specs = payload
                if state is not None:
                    agent.load_state_dict(state)
                    agent.interarrival_hint = interarrival_hint
                trajectories = [
                    run_episode(
                        agent,
                        simulator_config,
                        episode_spec,
                        rng=worker_rng if episode_spec.action_seed is None else None,
                    )
                    for episode_spec in episode_specs
                ]
                reply = [outcome_from_trajectory(t) for t in trajectories]
            elif command == "gradients":
                advantages, entropy_weight = payload
                reply = accumulate_episode_gradients(
                    agent, trajectories, advantages, entropy_weight
                )
            else:
                raise ValueError(f"unknown worker command {command!r}")
            conn.send(("ok", reply))
        except Exception:
            try:
                conn.send(("error", traceback.format_exc()))
            except (BrokenPipeError, OSError):
                return


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


def _pipe_worker(target: Callable, conn, *args) -> None:
    """Entry point of every pool process: single-threaded BLAS, then the loop."""
    single_threaded_blas()
    target(conn, *args)


class PipeWorkerPool:
    """A persistent pool of pipe-connected worker processes.

    The shared master/worker plumbing behind :class:`RolloutWorkerPool` and
    the sweep engine's pool: workers are started once (fork where available,
    else spawn) on a ``target`` loop that serves ``(command, payload)``
    requests — replying ``("ok", value)`` or ``("error", traceback)`` — until
    :meth:`close`.  ``worker_args(index)`` supplies each worker's extra
    constructor arguments (after the pipe connection).
    """

    worker_description = "worker"

    def __init__(
        self,
        num_workers: int,
        target: Callable,
        worker_args: Callable[[int], tuple],
        start_method: Optional[str] = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        context = mp.get_context(start_method)
        self.num_workers = int(num_workers)
        self._connections = []
        self._processes = []
        self._closed = False
        for index in range(self.num_workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_pipe_worker,
                args=(target, child_conn, *worker_args(index)),
                name=f"{self.worker_description.replace(' ', '-')}-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)

    @property
    def is_alive(self) -> bool:
        return not self._closed and all(p.is_alive() for p in self._processes)

    def run(self, command: str, payloads: list) -> list:
        """Send one payload per worker, wait for and return every reply."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if len(payloads) != self.num_workers:
            raise ValueError(
                f"expected {self.num_workers} payloads, got {len(payloads)}"
            )
        for connection, payload in zip(self._connections, payloads):
            connection.send((command, payload))
        # Drain every reply before raising so one worker's failure cannot
        # leave other workers' replies queued and desynchronize later runs.
        replies = []
        errors = []
        for index, connection in enumerate(self._connections):
            try:
                status, value = connection.recv()
            except EOFError:
                errors.append(f"{self.worker_description} {index} died without replying")
                continue
            if status != "ok":
                errors.append(f"{self.worker_description} {index} failed:\n{value}")
            else:
                replies.append(value)
        if errors:
            raise RuntimeError("\n".join(errors))
        return replies

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        if self._closed:
            return
        self._closed = True
        for connection in self._connections:
            try:
                connection.send(("close", None))
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for connection in self._connections:
            connection.close()

    def __enter__(self) -> "PipeWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:
            pass


class RolloutWorkerPool(PipeWorkerPool):
    """A persistent pool of rollout worker processes.

    Workers rebuild the agent from its
    :class:`~repro.core.checkpoints.AgentSpec` and then serve
    ``collect``/``gradients`` requests until :meth:`close`.  Worker ``i`` is
    seeded with ``seed + i`` for the fallback per-worker generator.
    """

    worker_description = "rollout worker"

    def __init__(
        self,
        simulator_config: SimulatorConfig,
        spec: AgentSpec,
        num_workers: int,
        seed: int = 0,
        start_method: Optional[str] = None,
    ) -> None:
        super().__init__(
            num_workers,
            target=_worker_main,
            worker_args=lambda index: (simulator_config, spec, seed + index),
            start_method=start_method,
        )


class ParallelRolloutBackend(RolloutBackend):
    """Collect episodes on a persistent multiprocessing worker pool.

    ``num_workers`` defaults to the machine's CPU count (the paper uses 16
    workers).  The pool is created lazily on the first :meth:`collect` — it
    needs the agent's architecture — and reused across iterations; if it was
    closed (or a worker died), the next collect transparently restarts it.
    """

    name = "parallel"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        seed: int = 0,
        start_method: Optional[str] = None,
    ) -> None:
        if num_workers is None:
            num_workers = max(1, os.cpu_count() or 1)
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = int(num_workers)
        self.seed = int(seed)
        self.start_method = start_method
        self._pool: Optional[RolloutWorkerPool] = None
        self._assignment: list[int] = []

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
                simulator_config,
                agent_spec(agent),
                self.num_workers,
                seed=self.seed,
                start_method=self.start_method,
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
        self._assignment = [index % pool.num_workers for index in range(len(specs))]
        state = agent.state_dict()
        payloads = []
        for worker in range(pool.num_workers):
            worker_specs = [
                spec for spec, owner in zip(specs, self._assignment) if owner == worker
            ]
            if worker_specs:
                payloads.append((state, agent.interarrival_hint, worker_specs))
            else:
                # Idle worker this iteration: skip the weight payload entirely.
                payloads.append((None, None, []))
        replies = pool.run("collect", payloads)
        # Re-interleave the per-worker replies back into episode order.
        cursors = [0] * pool.num_workers
        outcomes = []
        for worker in self._assignment:
            outcomes.append(replies[worker][cursors[worker]])
            cursors[worker] += 1
        return outcomes

    def compute_gradients(
        self,
        agent: DecimaAgent,
        advantages: list[np.ndarray],
        entropy_weight: float,
    ) -> list[Optional[np.ndarray]]:
        if self._pool is None or len(advantages) != len(self._assignment):
            raise RuntimeError("compute_gradients() requires a matching collect() first")
        per_worker: list[list[np.ndarray]] = [[] for _ in range(self._pool.num_workers)]
        for episode_advantages, worker in zip(advantages, self._assignment):
            per_worker[worker].append(episode_advantages)
        replies = self._pool.run(
            "gradients",
            [(worker_advantages, entropy_weight) for worker_advantages in per_worker],
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
        self._assignment = []
