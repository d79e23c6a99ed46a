"""Metrics and result containers for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .jobdag import JobDAG

__all__ = [
    "TaskRecord",
    "SimulationResult",
    "average_jct",
    "makespan",
    "executor_utilization",
    "latency_histogram",
]


@dataclass(frozen=True)
class TaskRecord:
    """One completed task, for timeline plots (Fig. 3 / Fig. 13)."""

    executor_id: int
    job_id: int
    job_name: str
    node_id: int
    start_time: float
    finish_time: float

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time


@dataclass
class SimulationResult:
    """Outcome of one simulated episode."""

    finished_jobs: list[JobDAG]
    unfinished_jobs: list[JobDAG]
    timeline: list[TaskRecord]
    wall_time: float
    total_reward: float
    num_actions: int
    # Seconds each ``schedule`` call took, one per decision (``run_episode``).
    scheduling_delays: list[float] = field(default_factory=list)

    @property
    def all_finished(self) -> bool:
        return not self.unfinished_jobs

    @property
    def average_jct(self) -> float:
        return average_jct(self.finished_jobs)

    @property
    def makespan(self) -> float:
        return makespan(self.finished_jobs)

    def job_completion_times(self) -> dict[str, float]:
        return {job.name: job.completion_duration() for job in self.finished_jobs}

    def per_job_work(self) -> dict[str, float]:
        """Actual executed work (task-seconds) per finished job, from the timeline."""
        work: dict[str, float] = {job.name: 0.0 for job in self.finished_jobs}
        for record in self.timeline:
            if record.job_name in work:
                work[record.job_name] += record.duration
        return work

    def summary(self) -> dict[str, float]:
        return {
            "finished_jobs": float(len(self.finished_jobs)),
            "unfinished_jobs": float(len(self.unfinished_jobs)),
            "average_jct": self.average_jct if self.finished_jobs else float("nan"),
            "makespan": self.makespan if self.finished_jobs else float("nan"),
            "wall_time": self.wall_time,
            "total_reward": self.total_reward,
            "num_actions": float(self.num_actions),
        }


def average_jct(jobs: Iterable[JobDAG]) -> float:
    """Average job completion time over completed jobs."""
    durations = [job.completion_duration() for job in jobs]
    if not durations:
        raise ValueError("no completed jobs to compute average JCT over")
    return float(np.mean(durations))


def makespan(jobs: Iterable[JobDAG]) -> float:
    """Time from the earliest arrival to the last completion."""
    jobs = list(jobs)
    if not jobs:
        raise ValueError("no completed jobs to compute makespan over")
    start = min(job.arrival_time for job in jobs)
    end = max(job.completion_time for job in jobs)
    return float(end - start)


def latency_histogram(values: Iterable[float]) -> dict:
    """p50/p95/p99 + count/mean/max summary of a sample of durations.

    The shared report format for anything latency-shaped: the sweep engine's
    pooled JCT distributions and the policy server's per-request decision
    latencies both emit it.  An empty sample yields ``count = 0`` with ``None``
    statistics (JSON-friendly; no NaNs in artifacts).
    """
    sample = np.asarray([float(v) for v in values], dtype=np.float64)
    if sample.size == 0:
        return {"count": 0, "mean": None, "p50": None, "p95": None, "p99": None, "max": None}
    p50, p95, p99 = np.percentile(sample, [50, 95, 99])
    return {
        "count": int(sample.size),
        "mean": float(sample.mean()),
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "max": float(sample.max()),
    }


def executor_utilization(
    timeline: Iterable[TaskRecord], num_executors: int, horizon: Optional[float] = None
) -> float:
    """Fraction of executor-time spent running tasks over the horizon."""
    records = list(timeline)
    if not records:
        return 0.0
    if horizon is None:
        horizon = max(record.finish_time for record in records)
    if horizon <= 0:
        return 0.0
    busy = sum(min(record.finish_time, horizon) - min(record.start_time, horizon) for record in records)
    return float(busy / (num_executors * horizon))
