"""Evaluation helpers: run a scheduler on a cloned job set, tune weighted fair."""

from __future__ import annotations

import copy
from typing import Iterable, Optional, Sequence

from ..schedulers.base import Scheduler
from ..schedulers.fair import ALPHA_SWEEP, WeightedFairScheduler
from ..simulator.environment import SchedulingEnvironment, SimulatorConfig, run_episode
from ..simulator.jobdag import JobDAG
from ..simulator.metrics import SimulationResult

__all__ = ["run_scheduler_on_jobs", "tune_weighted_fair", "clone_jobs"]


def clone_jobs(jobs: Iterable[JobDAG]) -> list[JobDAG]:
    """Deep-copy a job set so several schedulers can run on identical inputs."""
    return copy.deepcopy(list(jobs))


def run_scheduler_on_jobs(
    scheduler: Scheduler,
    jobs: Sequence[JobDAG],
    config: Optional[SimulatorConfig] = None,
    seed: Optional[int] = None,
) -> SimulationResult:
    """Convenience wrapper: build an environment, clone the jobs, run one episode."""
    environment = SchedulingEnvironment(config or SimulatorConfig())
    return run_episode(environment, scheduler, clone_jobs(jobs), seed=seed)


def tune_weighted_fair(
    jobs: Sequence[JobDAG],
    config: Optional[SimulatorConfig] = None,
    alphas: Sequence[float] = ALPHA_SWEEP,
    seed: Optional[int] = None,
) -> tuple[WeightedFairScheduler, float, dict[float, float]]:
    """Sweep the weighted-fair exponent and return the best scheduler (§7.1 item 5).

    Every exponent runs under the duration-noise ``seed`` the tuned scheduler
    will be compared at: pass the comparison's seed (``None``, as in
    :func:`run_scheduler_on_jobs`, leaves the config's own).  Returns
    ``(best_scheduler, best_average_jct, jct_by_alpha)``.
    """
    config = config or SimulatorConfig()
    jct_by_alpha: dict[float, float] = {}
    best_alpha = None
    best_jct = float("inf")
    for alpha in alphas:
        scheduler = WeightedFairScheduler(alpha=alpha)
        result = run_scheduler_on_jobs(scheduler, jobs, config=config, seed=seed)
        if not result.finished_jobs:
            continue
        jct = result.average_jct
        jct_by_alpha[float(alpha)] = jct
        if jct < best_jct:
            best_jct = jct
            best_alpha = float(alpha)
    if best_alpha is None:
        raise RuntimeError("no alpha in the sweep produced finished jobs")
    return WeightedFairScheduler(alpha=best_alpha), best_jct, jct_by_alpha
