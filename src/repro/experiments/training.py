"""Convenience helpers to train Decima agents for the experiment harness.

The paper trains for 50,000 iterations on a GPU; the harness defaults are tiny
so every benchmark finishes on a laptop, and every budget is a parameter so
longer runs use exactly the same code path.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.agent import DecimaAgent, DecimaConfig
from ..core.parallel import ParallelRolloutBackend, RolloutBackend
from ..core.reinforce import ReinforceTrainer, TrainingConfig, TrainingHistory
from ..simulator.environment import SimulatorConfig
from ..simulator.jobdag import JobDAG
from ..simulator.multi_resource import assign_memory_requests
from ..workloads.arrivals import batched_arrivals, poisson_arrivals
from ..workloads.tpch import sample_tpch_jobs

__all__ = [
    "tpch_batch_factory",
    "tpch_poisson_factory",
    "train_decima_agent",
]


def tpch_batch_factory(
    num_jobs: int,
    sizes: Sequence[float] = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
    with_memory: bool = False,
) -> Callable[[np.random.Generator], list[JobDAG]]:
    """Factory of batched TPC-H job sets (all jobs arrive at time zero)."""

    def factory(rng: np.random.Generator) -> list[JobDAG]:
        jobs = batched_arrivals(sample_tpch_jobs(num_jobs, rng, sizes=sizes))
        if with_memory:
            assign_memory_requests(jobs, seed=int(rng.integers(0, 2**31 - 1)))
        return jobs

    return factory


def tpch_poisson_factory(
    num_jobs: int,
    mean_interarrival: float,
    sizes: Sequence[float] = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
    with_memory: bool = False,
) -> Callable[[np.random.Generator], list[JobDAG]]:
    """Factory of continuous-arrival TPC-H job sequences (Poisson arrivals)."""

    def factory(rng: np.random.Generator) -> list[JobDAG]:
        jobs = sample_tpch_jobs(num_jobs, rng, sizes=sizes)
        jobs = poisson_arrivals(jobs, mean_interarrival, rng)
        if with_memory:
            assign_memory_requests(jobs, seed=int(rng.integers(0, 2**31 - 1)))
        return jobs

    return factory


def train_decima_agent(
    simulator_config: SimulatorConfig,
    job_sequence_factory: Callable[[np.random.Generator], list[JobDAG]],
    num_iterations: int = 20,
    episodes_per_iteration: int = 2,
    agent_config: Optional[DecimaConfig] = None,
    training_config: Optional[TrainingConfig] = None,
    seed: int = 0,
    num_workers: int = 1,
    rollout_backend: Optional[RolloutBackend] = None,
) -> tuple[DecimaAgent, TrainingHistory]:
    """Build and train a Decima agent; returns the agent and its training history.

    ``num_workers > 1`` collects each iteration's episodes on a persistent
    pool of that many rollout worker processes (§5.3, Algorithm 1); the
    default serial path is bit-identical to the historical behaviour.  Pass
    ``rollout_backend`` to supply a pre-configured backend instead.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1 (1 = serial collection)")
    agent_config = agent_config or DecimaConfig(seed=seed)
    agent = DecimaAgent(total_executors=simulator_config.num_executors, config=agent_config)
    training_config = training_config or TrainingConfig(seed=seed)
    training_config = replace(
        training_config,
        num_iterations=num_iterations,
        episodes_per_iteration=episodes_per_iteration,
    )
    backend = rollout_backend
    if backend is None and num_workers > 1:
        backend = ParallelRolloutBackend(num_workers=num_workers)
    trainer = ReinforceTrainer(
        agent, simulator_config, job_sequence_factory, training_config, backend=backend
    )
    with trainer:
        history = trainer.train()
    return agent, history
