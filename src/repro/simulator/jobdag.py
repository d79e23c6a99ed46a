"""Job, stage (DAG node) and task model for the cluster simulator.

A Spark job is a DAG whose nodes are *stages*; each stage consists of many
parallel *tasks* over shards of its input.  A stage becomes runnable once all
its parent stages have completed (§3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = ["Task", "Node", "JobDAG", "topological_order", "critical_path_value"]


@dataclass
class Task:
    """A single task (one shard of a stage's input)."""

    node: "Node"
    index: int
    start_time: float = -1.0
    finish_time: float = -1.0
    executor_id: int = -1

    @property
    def scheduled(self) -> bool:
        return self.start_time >= 0.0

    @property
    def finished(self) -> bool:
        return self.finish_time >= 0.0

    def reset(self) -> None:
        self.start_time = -1.0
        self.finish_time = -1.0
        self.executor_id = -1


class Node:
    """A stage of a job DAG.

    Parameters
    ----------
    node_id:
        Index of the stage within its job.
    num_tasks:
        Number of parallel tasks in the stage.
    task_duration:
        Mean duration of one task in seconds (later waves; the duration model
        applies first-wave slowdown and parallelism inflation on top).
    mem_request / cpu_request:
        Per-task resource requirements, in normalised units, used by the
        multi-resource environment (§7.3).  A task can only run on an executor
        whose capacity is at least the request.
    """

    def __init__(
        self,
        node_id: int,
        num_tasks: int,
        task_duration: float,
        mem_request: float = 0.0,
        cpu_request: float = 0.0,
        name: str = "",
    ):
        if num_tasks <= 0:
            raise ValueError("a stage must have at least one task")
        if task_duration <= 0:
            raise ValueError("task duration must be positive")
        self.node_id = node_id
        self.num_tasks = int(num_tasks)
        self.task_duration = float(task_duration)
        self.mem_request = float(mem_request)
        self.cpu_request = float(cpu_request)
        self.name = name or f"stage-{node_id}"
        self.job: Optional["JobDAG"] = None
        self.parents: list["Node"] = []
        self.children: list["Node"] = []
        # Runtime state.
        self.tasks: list[Task] = [Task(self, i) for i in range(self.num_tasks)]
        self.next_task_index = 0
        self.num_finished_tasks = 0
        self.num_running_tasks = 0
        self.completion_time = -1.0
        self.first_wave_dispatched = 0

    # ------------------------------------------------------------ properties
    @property
    def total_work(self) -> float:
        """Total work of the stage in task-seconds."""
        return self.num_tasks * self.task_duration

    @property
    def remaining_tasks(self) -> int:
        """Tasks not yet dispatched to an executor."""
        return self.num_tasks - self.next_task_index

    @property
    def remaining_work(self) -> float:
        """Work of the tasks not yet *finished*, in task-seconds."""
        return (self.num_tasks - self.num_finished_tasks) * self.task_duration

    @property
    def saturated(self) -> bool:
        """True once every task has been dispatched (the stage needs no more executors)."""
        return self.next_task_index >= self.num_tasks

    @property
    def completed(self) -> bool:
        return self.num_finished_tasks >= self.num_tasks

    @property
    def parents_completed(self) -> bool:
        return all(parent.completed for parent in self.parents)

    @property
    def runnable(self) -> bool:
        """A stage is schedulable if its parents completed and it still has undispatched tasks."""
        return (not self.saturated) and self.parents_completed

    # --------------------------------------------------------------- actions
    def dispatch_task(self) -> Task:
        """Hand out the next undispatched task (the engine sets its times)."""
        if self.saturated:
            raise RuntimeError(f"{self.name} has no undispatched tasks left")
        task = self.tasks[self.next_task_index]
        self.next_task_index += 1
        self.num_running_tasks += 1
        if self.job is not None:
            self.job.log_feature_touch(self)
        return task

    def finish_task(self, task: Task, wall_time: float) -> None:
        """Record a task completion; marks the stage completed when the last one finishes."""
        self.num_finished_tasks += 1
        self.num_running_tasks -= 1
        if self.completed and self.completion_time < 0:
            self.completion_time = wall_time
        if self.job is not None:
            self.job.log_feature_touch(self)

    def reset(self) -> None:
        for task in self.tasks:
            task.reset()
        self.next_task_index = 0
        self.num_finished_tasks = 0
        self.num_running_tasks = 0
        self.completion_time = -1.0
        self.first_wave_dispatched = 0
        if self.job is not None:
            self.job.log_feature_touch(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        job_name = self.job.name if self.job is not None else "?"
        return f"Node({job_name}/{self.name}, tasks={self.num_tasks})"


class JobDAG:
    """A DAG of stages plus the job-level runtime state."""

    _id_counter = 0

    def __init__(
        self,
        nodes: Iterable[Node],
        edges: Iterable[tuple[int, int]],
        name: str = "",
        arrival_time: float = 0.0,
        work_inflation: Optional[Callable[[int], float]] = None,
        query_size_gb: float = 0.0,
    ):
        self.nodes = list(nodes)
        if not self.nodes:
            raise ValueError("a job must contain at least one stage")
        self.job_id = JobDAG._id_counter
        JobDAG._id_counter += 1
        self.name = name or f"job-{self.job_id}"
        self.arrival_time = float(arrival_time)
        self.completion_time = -1.0
        self.query_size_gb = float(query_size_gb)
        # ``work_inflation(parallelism)`` multiplies task durations to model the
        # diminishing-returns / slowdown effect of wide shuffles (§6.2 item 3).
        self.work_inflation = work_inflation
        self.executor_ids: set[int] = set()
        # Delta-feature bookkeeping: nodes whose task counters changed since a
        # feature consumer last drained the log, plus an epoch that advances
        # whenever per-node history can no longer be trusted (job reset, log
        # overflow) so consumers know to fall back to a full refresh.
        self.feature_epoch = 0
        self._touched_nodes: list[Node] = []
        self._touch_log_limit = 4 * len(self.nodes) + 16

        node_ids = {node.node_id for node in self.nodes}
        if len(node_ids) != len(self.nodes):
            raise ValueError("duplicate node ids in job DAG")
        by_id = {node.node_id: node for node in self.nodes}
        self.edges = [(int(src), int(dst)) for src, dst in edges]
        for src, dst in self.edges:
            if src not in by_id or dst not in by_id:
                raise ValueError(f"edge ({src}, {dst}) references unknown node")
            by_id[src].children.append(by_id[dst])
            by_id[dst].parents.append(by_id[src])
        for node in self.nodes:
            node.job = self
        # Validate acyclicity by computing a topological order (raises on cycles).
        self._topo_order = topological_order(self.nodes)

    # ------------------------------------------------------------ properties
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def completed(self) -> bool:
        return all(node.completed for node in self.nodes)

    @property
    def arrived(self) -> bool:
        return self.arrival_time >= 0.0

    @property
    def total_work(self) -> float:
        return sum(node.total_work for node in self.nodes)

    @property
    def remaining_work(self) -> float:
        return sum(node.remaining_work for node in self.nodes)

    @property
    def num_executors(self) -> int:
        """Executors currently bound to this job (including idle, warm ones)."""
        return len(self.executor_ids)

    @property
    def num_active_executors(self) -> int:
        """Executors currently *running a task* of this job.

        Parallelism limits are compared against this count: an executor that
        finished its stage and sits idle (but warm) does not count towards the
        job's parallelism.
        """
        return sum(node.num_running_tasks for node in self.nodes)

    @property
    def runnable_nodes(self) -> list[Node]:
        return [node for node in self.nodes if node.runnable]

    @property
    def adjacency_matrix(self) -> np.ndarray:
        """Adjacency matrix A with A[parent, child] = 1 (row = parent stage)."""
        matrix = np.zeros((self.num_nodes, self.num_nodes))
        index = {node.node_id: i for i, node in enumerate(self.nodes)}
        for src, dst in self.edges:
            matrix[index[src], index[dst]] = 1.0
        return matrix

    def completion_duration(self) -> float:
        """Job completion time (JCT) = completion - arrival."""
        if self.completion_time < 0:
            raise RuntimeError(f"{self.name} has not completed")
        return self.completion_time - self.arrival_time

    def critical_path(self) -> float:
        """Length of the critical path of the DAG in task-seconds of work."""
        return max(critical_path_value(node) for node in self.nodes)

    # ------------------------------------------------- delta-feature tracking
    def log_feature_touch(self, node: Node) -> None:
        """Record that ``node``'s task counters changed.

        Feature caches drain this log to refresh only the touched rows of the
        persistent feature matrix.  When the log outgrows the job (several
        times the node count — at that point a full refresh is cheaper than
        replaying the deltas) it is compacted into an epoch bump, which tells
        every consumer to do one full refresh and start over.
        """
        if len(self._touched_nodes) >= self._touch_log_limit:
            self.feature_epoch += 1
            self._touched_nodes.clear()
        else:
            self._touched_nodes.append(node)

    @property
    def num_feature_touches(self) -> int:
        """Length of the touch log: a position equal to it has nothing to drain."""
        return len(self._touched_nodes)

    def drain_feature_touches(self, log_position: int) -> tuple[int, list[Node]]:
        """Return ``(new_position, nodes touched since log_position)``."""
        touched = self._touched_nodes
        return len(touched), touched[log_position:]

    def reset(self) -> None:
        for node in self.nodes:
            node.reset()
        self.completion_time = -1.0
        self.executor_ids = set()
        # Per-node resets above logged touches; collapse them into one epoch
        # bump so stale per-job cache state can never replay across episodes.
        self.feature_epoch += 1
        self._touched_nodes.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobDAG({self.name}, stages={self.num_nodes}, work={self.total_work:.1f})"


def topological_order(nodes: Iterable[Node]) -> list[Node]:
    """Kahn's algorithm; raises ``ValueError`` if the graph contains a cycle."""
    nodes = list(nodes)
    in_degree = {id(node): len(node.parents) for node in nodes}
    frontier = [node for node in nodes if in_degree[id(node)] == 0]
    order: list[Node] = []
    while frontier:
        node = frontier.pop()
        order.append(node)
        for child in node.children:
            in_degree[id(child)] -= 1
            if in_degree[id(child)] == 0:
                frontier.append(child)
    if len(order) != len(nodes):
        raise ValueError("job DAG contains a cycle")
    return order


def critical_path_value(node: Node, _cache: Optional[dict] = None) -> float:
    """Total work along the heaviest downstream path starting at ``node``.

    This is the quantity the paper's footnote 5 defines:
    ``cp(v) = max_{u in children(v)} cp(u) + work(v)``.
    """
    if _cache is None:
        _cache = {}
    key = id(node)
    if key in _cache:
        return _cache[key]
    child_value = max((critical_path_value(child, _cache) for child in node.children), default=0.0)
    value = child_value + node.total_work
    _cache[key] = value
    return value
