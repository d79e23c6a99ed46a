"""Event-driven cluster scheduling environment.

This is the simulator the paper trains and evaluates Decima in (§6.2).  It
exposes a reinforcement-learning style interface:

* :meth:`SchedulingEnvironment.reset` loads a set of jobs (with arrival times)
  and advances to the first scheduling event;
* :meth:`SchedulingEnvironment.observe` returns an :class:`Observation` with
  the unfinished job DAGs, the schedulable stages and executor status;
* :meth:`SchedulingEnvironment.step` applies a scheduling :class:`Action`
  (stage, parallelism limit, and — in the multi-resource setting — executor
  class), advances simulated time when no further assignment is possible, and
  returns the reward of Eq. (§5.3): ``-(t_k - t_{k-1}) * J`` for the average
  JCT objective.

:func:`run_episode` is the one loop that steps it.  Evaluation, training
rollouts, remote sessions and trace replay all run an episode through it with
a different scheduler, so the learned Decima agent and every baseline
heuristic see the same environment and comparisons are apples-to-apples.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from .duration import DurationModelConfig, TaskDurationModel
from .executor import Executor, ExecutorClass, default_executor_class
from .jobdag import JobDAG, Node
from .metrics import SimulationResult, TaskRecord

__all__ = [
    "ExecutorChurnEvent",
    "SimulatorConfig",
    "Observation",
    "Action",
    "SchedulingEnvironment",
    "run_episode",
]


@dataclass(frozen=True)
class ExecutorChurnEvent:
    """A timed change to the executor fleet (cluster churn).

    ``executor_removed`` decommissions ``count`` executors at ``time``: idle
    executors leave immediately, busy ones finish their current task first
    (graceful drain).  At least one executor always stays in the cluster.
    ``executor_added`` brings ``count`` new executors online; their class
    defaults to the standalone class (homogeneous clusters) or the last
    configured class otherwise.
    """

    time: float
    kind: str  # "executor_added" | "executor_removed"
    count: int = 1
    executor_class: Optional[ExecutorClass] = None

    def __post_init__(self) -> None:
        if self.kind not in ("executor_added", "executor_removed"):
            raise ValueError(
                f"churn event kind must be 'executor_added' or 'executor_removed', got {self.kind!r}"
            )
        if self.time < 0:
            raise ValueError("churn event time must be non-negative")
        if self.count < 1:
            raise ValueError("churn event count must be at least 1")


@dataclass
class SimulatorConfig:
    """Configuration of the simulated cluster.

    ``executor_classes`` is a list of ``(ExecutorClass, count)`` pairs; when it
    is ``None`` the cluster has ``num_executors`` identical executors (the
    standalone-Spark setting of §7.2: 25 workers x 2 executors = 50 slots).
    ``churn_events`` is a sequence of timed :class:`ExecutorChurnEvent`
    changes to the fleet, replayed identically in every episode through the
    same event heap every scheduler observes.
    """

    num_executors: int = 50
    executor_classes: Optional[list[tuple[ExecutorClass, int]]] = None
    duration: DurationModelConfig = field(default_factory=DurationModelConfig)
    reward_mode: str = "avg_jct"  # "avg_jct" | "makespan"
    reward_scale: float = 1e-3
    max_time: float = math.inf
    seed: int = 0
    churn_events: tuple[ExecutorChurnEvent, ...] = ()

    def build_executors(self) -> list[Executor]:
        executors: list[Executor] = []
        if self.executor_classes is None:
            cls = default_executor_class()
            for i in range(self.num_executors):
                executors.append(Executor(i, cls))
            return executors
        next_id = 0
        for cls, count in self.executor_classes:
            for _ in range(count):
                executors.append(Executor(next_id, cls))
                next_id += 1
        return executors


@dataclass
class Observation:
    """Snapshot of the cluster handed to the scheduling policy."""

    wall_time: float
    job_dags: list[JobDAG]
    schedulable_nodes: list[Node]
    num_free_executors: int
    free_executors_by_class: Counter
    source_job: Optional[JobDAG]
    total_executors: int
    executor_classes: list[ExecutorClass]
    num_jobs_in_system: int

    def free_executors_for(self, node: Node) -> int:
        """Number of free executors whose class can run tasks of ``node``."""
        return sum(
            count
            for cls, count in self.free_executors_by_class.items()
            if cls.fits(node)
        )


@dataclass
class Action:
    """A scheduling decision: stage, parallelism limit, optional executor class."""

    node: Optional[Node]
    parallelism_limit: int = 1
    executor_class: Optional[ExecutorClass] = None


@dataclass
class _LiveJob:
    """Runnability bookkeeping the environment keeps for one live job."""

    runnable: list[Node]  # == job.runnable_nodes, in job.nodes order
    unfinished_parents: dict[Node, int]  # stage -> parent edges not yet completed
    unfinished_stages: int  # == sum(not node.completed for node in job.nodes)
    position: dict[Node, int]  # stage -> index in job.nodes
    fits_every_stage: frozenset  # executor classes that fit all of job.nodes


class SchedulingEnvironment:
    """Event-driven simulator of a Spark-like cluster."""

    def __init__(self, config: Optional[SimulatorConfig] = None):
        self.config = config or SimulatorConfig()
        if self.config.reward_mode not in ("avg_jct", "makespan"):
            raise ValueError(f"unknown reward mode {self.config.reward_mode!r}")
        # Observers of the event stream (trace recording, debugging).  Each is
        # called as ``listener(kind, time, detail_dict)`` for every event the
        # engine processes, in processing order, *before* the event mutates
        # state.  Listeners survive reset() so a recorder attached once sees
        # every episode; the empty default costs one truthiness check per event.
        self.event_listeners: list = []
        self.duration_model = TaskDurationModel(self.config.duration, seed=self.config.seed)
        self.executors: list[Executor] = self.config.build_executors()
        self.executor_classes = sorted(
            {e.executor_class for e in self.executors}
            | {
                event.executor_class
                for event in self.config.churn_events
                if event.executor_class is not None
            },
            key=lambda c: (c.memory, c.cpu),
        )
        self._event_counter = itertools.count()
        self._reset_state()

    # ------------------------------------------------------------ life cycle
    def _reset_state(self) -> None:
        self.wall_time = 0.0
        self.events: list[tuple[float, int, str, object]] = []
        self.active_jobs: list[JobDAG] = []
        # The runnable frontier, a cache of ``JobDAG.runnable_nodes`` keyed by
        # live job in arrival order (== active_jobs).  Only _on_job_arrival,
        # _dispatch, _on_task_finish and this method write it, so a scheduling
        # event costs what it changes instead of a scan over every stage.
        self._frontier: dict[JobDAG, _LiveJob] = {}
        self.finished_jobs: list[JobDAG] = []
        self.pending_arrivals = 0
        self.free_executor_ids: set[int] = set()
        self.timeline: list[TaskRecord] = []
        self.total_reward = 0.0
        self.num_actions = 0
        self.forced_assignments = 0
        self.source_job: Optional[JobDAG] = None
        self.done = False

    def reset(self, jobs: Iterable[JobDAG], seed: Optional[int] = None) -> Observation:
        """Load ``jobs`` (their ``arrival_time`` schedules them) and start the episode."""
        self._reset_state()
        if seed is not None:
            self.duration_model.reseed(seed)
        # Rebuild the fleet from the config so churn from a previous episode
        # (removed or added executors) never leaks into this one; the fresh
        # Executor objects start unbound and idle.
        self.executors = self.config.build_executors()
        self.free_executor_ids = {e.executor_id for e in self.executors}
        jobs = list(jobs)
        if not jobs:
            raise ValueError("reset requires at least one job")
        for job in jobs:
            job.reset()
            self._push_event(job.arrival_time, "job_arrival", job)
            self.pending_arrivals += 1
        for event in self.config.churn_events:
            self._push_event(event.time, event.kind, event)
        # Advance to the first scheduling point.
        self._advance()
        return self.observe()

    # --------------------------------------------------------------- events
    def _push_event(self, time: float, kind: str, payload: object) -> None:
        heapq.heappush(self.events, (time, next(self._event_counter), kind, payload))

    def _num_jobs_in_system(self) -> int:
        return len(self.active_jobs)

    @property
    def num_active_executors(self) -> int:
        """Executors currently part of the cluster (churn-removed ones excluded)."""
        return sum(1 for executor in self.executors if executor.active)

    # ----------------------------------------------------------- observation
    def observe(self) -> Observation:
        free_by_class: Counter = Counter()
        for executor_id in self.free_executor_ids:
            free_by_class[self.executors[executor_id].executor_class] += 1
        schedulable = self._schedulable_nodes()
        return Observation(
            wall_time=self.wall_time,
            job_dags=list(self.active_jobs),
            schedulable_nodes=schedulable,
            num_free_executors=len(self.free_executor_ids),
            free_executors_by_class=free_by_class,
            source_job=self.source_job,
            total_executors=self.num_active_executors,
            executor_classes=list(self.executor_classes),
            num_jobs_in_system=self._num_jobs_in_system(),
        )

    def _iter_schedulable(self) -> Iterator[Node]:
        """Runnable stages for which at least one free executor class fits."""
        free_classes = {self.executors[i].executor_class for i in self.free_executor_ids}
        for live in self._frontier.values():
            if not live.fits_every_stage.isdisjoint(free_classes):
                yield from live.runnable
                continue
            for node in live.runnable:
                for cls in free_classes:
                    if cls.fits(node):
                        yield node
                        break

    def _schedulable_nodes(self) -> list[Node]:
        return list(self._iter_schedulable())

    def _scheduling_point(self) -> bool:
        return bool(self.free_executor_ids) and next(self._iter_schedulable(), None) is not None

    # ------------------------------------------------------------------ step
    def step(self, action: Optional[Action]) -> tuple[Optional[Observation], float, bool]:
        """Apply ``action`` and return ``(observation, reward, done)``.

        If executors remain free and stages remain schedulable after the
        action, time does not advance and the reward is zero — the policy is
        invoked again, exactly as in §5.2.  Otherwise the simulation advances
        to the next scheduling event and the accumulated JCT penalty is
        returned as the (negative) reward.
        """
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        self.num_actions += 1
        num_assigned = 0
        if action is not None and action.node is not None:
            num_assigned = self._commit(action)

        reward = 0.0
        if num_assigned == 0 or not self._scheduling_point():
            # The action could not make progress (or exhausted the free
            # executors): advance simulated time.
            if num_assigned == 0 and not self.events and self._scheduling_point():
                # The scheduler declined while the cluster is otherwise idle;
                # force a minimal assignment to guarantee liveness.
                self._force_assign()
                self.forced_assignments += 1
            # A zero-assignment action must not return the identical
            # observation (the policy would loop forever); process at least
            # one event so the cluster state changes.
            reward = self._advance(force_process_event=(num_assigned == 0))
        self.total_reward += reward
        observation = None if self.done else self.observe()
        return observation, reward, self.done

    # ------------------------------------------------------------ scheduling
    def _commit(self, action: Action) -> int:
        """Assign free executors to ``action.node`` up to the parallelism limit."""
        node = action.node
        assert node is not None
        job = node.job
        if job is None or job not in self._frontier or not node.runnable:
            return 0
        limit = int(action.parallelism_limit)
        want = limit - job.num_active_executors
        want = min(want, node.remaining_tasks)
        if want <= 0:
            return 0
        candidates = self._candidate_executors(node, action.executor_class)
        assigned = 0
        for executor in candidates:
            if assigned >= want or node.saturated:
                break
            self._dispatch(executor, node)
            assigned += 1
        return assigned

    def _candidate_executors(
        self, node: Node, executor_class: Optional[ExecutorClass]
    ) -> list[Executor]:
        """Free executors able to run ``node``, best candidates first.

        Preference order: executors already bound to the node's job (no JVM
        restart), then the smallest-memory class that fits (reduces
        fragmentation) — unless the action pinned a specific class.
        """
        free = [self.executors[i] for i in sorted(self.free_executor_ids)]
        if executor_class is not None:
            free = [e for e in free if e.executor_class == executor_class]
        free = [e for e in free if e.executor_class.fits(node)]
        free.sort(key=lambda e: (e.job is not node.job, e.executor_class.memory, e.executor_id))
        return free

    def _force_assign(self) -> None:
        """Liveness fallback: put one free executor on some schedulable stage."""
        for node in self._schedulable_nodes():
            candidates = self._candidate_executors(node, None)
            if candidates:
                self._dispatch(candidates[0], node)
                return

    def _dispatch(self, executor: Executor, node: Node) -> None:
        """Start the next task of ``node`` on ``executor``."""
        job = node.job
        assert job is not None
        same_job = executor.job is job
        delay = self.duration_model.moving_delay(same_job)
        executor.bind_job(job)
        first_wave = node.num_finished_tasks == 0 and node.first_wave_dispatched < max(
            1, len(job.executor_ids)
        )
        if first_wave:
            node.first_wave_dispatched += 1
        task = node.dispatch_task()
        duration = self.duration_model.sample_duration(node, first_wave, job.num_executors)
        task.executor_id = executor.executor_id
        task.start_time = self.wall_time + delay
        task.finish_time = task.start_time + duration
        executor.start_task(node, task)
        self.free_executor_ids.discard(executor.executor_id)
        self._push_event(task.finish_time, "task_finish", executor)
        if node.saturated:
            self._frontier[job].runnable.remove(node)

    # --------------------------------------------------------------- advance
    def _advance(self, force_process_event: bool = False) -> float:
        """Process events until the next scheduling point (or episode end).

        When ``force_process_event`` is set, at least one event is processed
        before a scheduling point may end the loop (liveness guarantee for
        actions that assigned nothing).
        """
        penalty = 0.0
        processed_events = 0
        while not self.done:
            # All events at the current instant must be applied before the
            # policy observes the state (e.g. two jobs arriving at time zero
            # are both visible at the first scheduling event).
            same_instant_pending = bool(self.events) and self.events[0][0] <= self.wall_time
            if (
                self._scheduling_point()
                and not same_instant_pending
                and not (force_process_event and processed_events == 0)
            ):
                break
            if self._all_work_done():
                # Only churn events can remain once every job finished (no
                # arrivals are pending and completed jobs have no in-flight
                # tasks); dropping them keeps the final wall time at the last
                # completion instead of the last fleet change.
                self.done = True
                break
            if not self.events:
                if self._all_work_done():
                    self.done = True
                elif not self._any_running_task():
                    raise RuntimeError(
                        "simulation deadlock: unfinished stages but no running tasks "
                        "and no free executor can serve them"
                    )
                break
            event_time = self.events[0][0]
            if event_time >= self.config.max_time:
                penalty += self._interval_penalty(self.config.max_time - self.wall_time)
                self.wall_time = self.config.max_time
                self.done = True
                break
            event_time, _, kind, payload = heapq.heappop(self.events)
            penalty += self._interval_penalty(event_time - self.wall_time)
            self.wall_time = event_time
            processed_events += 1
            if self.event_listeners:
                self._notify_listeners(kind, event_time, payload)
            if kind == "task_finish":
                self._on_task_finish(payload)  # type: ignore[arg-type]
            elif kind == "job_arrival":
                self._on_job_arrival(payload)  # type: ignore[arg-type]
            elif kind == "executor_added":
                self._on_executor_added(payload)  # type: ignore[arg-type]
            elif kind == "executor_removed":
                self._on_executor_removed(payload)  # type: ignore[arg-type]
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown event kind {kind!r}")
            if self._all_work_done() and not self.events:
                self.done = True
        return -penalty * self.config.reward_scale

    def _notify_listeners(self, kind: str, time: float, payload: object) -> None:
        """Describe the event to every listener before its handler runs.

        Details use seed-deterministic identifiers (job *names*, node and
        executor ids) so recorded event streams are comparable across
        processes regardless of the global ``JobDAG`` id counter.
        """
        detail: dict = {}
        if kind == "job_arrival":
            job: JobDAG = payload  # type: ignore[assignment]
            detail = {"job": job.name}
        elif kind == "task_finish":
            executor: Executor = payload  # type: ignore[assignment]
            task = executor.task
            if task is not None:
                job = task.node.job
                detail = {
                    "job": job.name if job is not None else None,
                    "node": task.node.node_id,
                    "executor": executor.executor_id,
                }
        elif kind in ("executor_added", "executor_removed"):
            event: ExecutorChurnEvent = payload  # type: ignore[assignment]
            detail = {"count": event.count}
        for listener in self.event_listeners:
            listener(kind, time, detail)

    def _interval_penalty(self, dt: float) -> float:
        if dt <= 0:
            return 0.0
        if self.config.reward_mode == "makespan":
            return dt if self.active_jobs or self.pending_arrivals else 0.0
        return dt * self._num_jobs_in_system()

    def _all_work_done(self) -> bool:
        return not self.active_jobs and self.pending_arrivals == 0

    def _any_running_task(self) -> bool:
        return any(not executor.idle for executor in self.executors)

    # ---------------------------------------------------------- event logic
    def _on_job_arrival(self, job: JobDAG) -> None:
        self.pending_arrivals -= 1
        self.active_jobs.append(job)
        self._frontier[job] = _LiveJob(
            runnable=job.runnable_nodes,
            unfinished_parents={
                node: sum(not parent.completed for parent in node.parents)
                for node in job.nodes
            },
            unfinished_stages=sum(not node.completed for node in job.nodes),
            position={node: index for index, node in enumerate(job.nodes)},
            fits_every_stage=frozenset(
                cls
                for cls in self.executor_classes
                if all(cls.fits(node) for node in job.nodes)
            ),
        )

    def _on_executor_added(self, event: ExecutorChurnEvent) -> None:
        cls = event.executor_class
        if cls is None:
            if self.config.executor_classes is None:
                cls = default_executor_class()
            else:
                cls = self.config.executor_classes[-1][0]
        for _ in range(event.count):
            executor = Executor(len(self.executors), cls)
            self.executors.append(executor)
            self.free_executor_ids.add(executor.executor_id)

    def _on_executor_removed(self, event: ExecutorChurnEvent) -> None:
        removable = max(0, self.num_active_executors - 1)
        budget = min(event.count, removable)
        if budget <= 0:
            return
        # Deterministic victim order: idle executors first (they leave at
        # once), newest slots first within each group; busy executors drain
        # their current task before leaving (see _on_task_finish).
        active = [e for e in self.executors if e.active]
        active.sort(key=lambda e: (not e.idle, -e.executor_id))
        for executor in active[:budget]:
            executor.removed = True
            if executor.idle:
                self.free_executor_ids.discard(executor.executor_id)
                executor.bind_job(None)

    def _on_task_finish(self, executor: Executor) -> None:
        task = executor.finish_task()
        node = task.node
        job = node.job
        assert job is not None
        node.finish_task(task, self.wall_time)
        self.timeline.append(
            TaskRecord(
                executor_id=executor.executor_id,
                job_id=job.job_id,
                job_name=job.name,
                node_id=node.node_id,
                start_time=task.start_time,
                finish_time=task.finish_time,
            )
        )
        live = self._frontier[job]
        if node.completed:
            live.unfinished_stages -= 1
            for child in node.children:
                live.unfinished_parents[child] -= 1
                if live.unfinished_parents[child] == 0 and not child.saturated:
                    live.runnable.append(child)
                    live.runnable.sort(key=live.position.__getitem__)
        if live.unfinished_stages == 0 and job.completion_time < 0:
            job.completion_time = self.wall_time
            self.active_jobs.remove(job)
            del self._frontier[job]
            self.finished_jobs.append(job)
            for other in self.executors:
                if other.job is job and other.idle:
                    other.bind_job(None)
            executor.bind_job(None)
            self.source_job = None
            if executor.active:
                self.free_executor_ids.add(executor.executor_id)
            return
        # A churn-removed executor drains: it finishes its in-flight task but
        # never takes another one and never rejoins the free pool.
        if executor.removed:
            executor.bind_job(None)
            return
        # Keep the executor on the same stage while it has undispatched tasks
        # (this is Spark's task-level scheduling, not an agent decision).
        if not node.saturated:
            self._dispatch(executor, node)
            return
        # The stage ran out of tasks: the executor is freed and the next
        # observation reports its job as the locality "source".
        self.source_job = job
        self.free_executor_ids.add(executor.executor_id)

    # ----------------------------------------------------------------- result
    def result(self) -> SimulationResult:
        return SimulationResult(
            finished_jobs=list(self.finished_jobs),
            unfinished_jobs=list(self.active_jobs),
            timeline=list(self.timeline),
            wall_time=self.wall_time,
            total_reward=self.total_reward,
            num_actions=self.num_actions,
        )


def run_episode(
    environment: SchedulingEnvironment,
    scheduler,
    jobs: Iterable[JobDAG],
    seed: Optional[int] = None,
    max_decisions: Optional[int] = None,
    decision_hook: Optional[Callable] = None,
) -> SimulationResult:
    """Run one episode of ``scheduler`` on ``jobs`` in ``environment``.

    ``scheduler`` is anything with ``reset()`` and ``schedule(observation)``:
    a heuristic, an agent, or an adapter that samples a training decision,
    asks a policy server or plays a recording back.  It is reset, then asked
    once per decision until the episode ends or ``max_decisions`` decisions
    were made.  The wall-clock time of every ``schedule`` call is kept in
    ``scheduling_delays`` (the Figure-15b distribution).

    ``decision_hook(step, observation, action)`` is the instrumentation seam:
    it is called *before* the step executes (the observation still reflects
    exactly what the scheduler saw — stepping mutates the live job DAGs in
    place); if it returns a callable, that is invoked with the step's reward
    once the step completes.  Hooks must not mutate their arguments.
    """
    scheduler.reset()
    observation = environment.reset(jobs, seed=seed)
    delays: list[float] = []
    done = False
    while not done and (max_decisions is None or len(delays) < max_decisions):
        start = time.perf_counter()
        action = scheduler.schedule(observation)
        delays.append(time.perf_counter() - start)
        finish = (
            None
            if decision_hook is None
            else decision_hook(len(delays) - 1, observation, action)
        )
        observation, reward, done = environment.step(action)
        if finish is not None:
            finish(reward)
    result = environment.result()
    result.scheduling_delays = delays
    return result
