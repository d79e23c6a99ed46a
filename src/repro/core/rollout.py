"""Episode rollout collection for REINFORCE training."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..autograd import Tensor
from ..simulator.environment import Action, Observation, SchedulingEnvironment, run_episode
from ..simulator.jobdag import JobDAG
from ..simulator.metrics import SimulationResult
from .agent import ActionRecord, DecimaAgent

__all__ = [
    "REPLAY_CHUNK",
    "Transition",
    "Trajectory",
    "RolloutSampler",
    "collect_rollout",
    "accumulate_record_gradients",
    "chunk_loss",
]

# Decisions scored per autograd graph at update time.  A chunk's records merge
# into one disconnected graph, so the chunk size trades the number of forward
# and backward passes against the size of the one graph alive at a time.
# Measured with segment scoring on the benchmark's train_10j sizing (seed 1,
# six rounds of the four sizes in rotated order, 2-cpu host, BLAS pinned;
# medians, ratio to 32 paired within each round):
#
#   chunk   decisions/s   ratio to 32   peak RSS
#      16         621.0         0.99x    78.3 MB
#      32         638.3         1.00x    97.8 MB
#      64         639.2         1.00x   140.1 MB
#     128         623.8         1.00x   220.8 MB
#
# Time is flat (no size beats 32 in more than three rounds of six); memory
# grows by ~1.25 MB per record of a 10-job graph.  32 stays: no size is
# faster, and 16 trades 1% of throughput for 20 MB.
REPLAY_CHUNK = 32


@dataclass
class Transition:
    """One action and its consequences.

    ``record`` is plain data (see :class:`~repro.core.agent.ActionRecord`):
    no autograd graph waits for the advantages, the update re-scores the
    records under the same parameters in merged chunks.
    """

    record: ActionRecord
    reward: float
    wall_time: float


@dataclass
class Trajectory:
    """A full training episode."""

    transitions: list[Transition] = field(default_factory=list)
    result: Optional[SimulationResult] = None

    @property
    def num_actions(self) -> int:
        return len(self.transitions)

    @property
    def total_reward(self) -> float:
        return float(sum(t.reward for t in self.transitions))

    def rewards(self) -> np.ndarray:
        return np.array([t.reward for t in self.transitions])

    def wall_times(self) -> np.ndarray:
        return np.array([t.wall_time for t in self.transitions])


class RolloutSampler:
    """The scheduler of a training episode: one sampled decision per call.

    ``schedule`` calls ``agent.act(..., greedy=False, record=True)`` exactly
    once, on the agent it was given, and keeps the decision's record in
    ``record`` for the episode loop's hook.  ``reset`` only drops the agent's
    cached graph structure: the episode's job DAGs are fresh objects.
    """

    def __init__(self, agent: DecimaAgent, rng: np.random.Generator):
        self.agent = agent
        self.rng = rng
        self.record: Optional[ActionRecord] = None

    def reset(self) -> None:
        self.agent.reset_graph_cache()

    def schedule(self, observation: Observation) -> Optional[Action]:
        action, self.record = self.agent.act(
            observation, rng=self.rng, greedy=False, record=True
        )
        return action


def collect_rollout(
    environment: SchedulingEnvironment,
    agent: DecimaAgent,
    jobs: list[JobDAG],
    rng: np.random.Generator,
    seed: Optional[int] = None,
    max_actions: Optional[int] = None,
) -> Trajectory:
    """Run one sampled episode of ``agent`` and record per-action training data.

    Actions are *sampled* from the policy (not arg-maxed) so the policy
    gradient explores, on the inference data path: a :class:`RolloutSampler`
    drives :func:`~repro.simulator.environment.run_episode`, and its hook
    turns each decision's record and reward into a :class:`Transition`.
    ``max_actions`` is a safety bound for degenerate policies early in
    training.
    """
    sampler = RolloutSampler(agent, rng)
    trajectory = Trajectory()
    transitions = trajectory.transitions

    def keep(step, observation, action):
        record, wall_time = sampler.record, observation.wall_time
        if record is None:
            return None
        return lambda reward: transitions.append(Transition(record, reward, wall_time))

    trajectory.result = run_episode(
        environment, sampler, jobs, seed=seed, max_decisions=max_actions,
        decision_hook=keep,
    )
    return trajectory


def accumulate_record_gradients(
    agent: DecimaAgent,
    records: Sequence[ActionRecord],
    advantages: Sequence[float],
    entropy_weight: float,
) -> None:
    """Add the REINFORCE gradient of ``records`` to ``agent``'s parameter grads.

    The loss is :func:`chunk_loss` of the records, taken
    :data:`REPLAY_CHUNK` records at a time: one merged autograd forward
    scores a chunk, its ``backward()`` accumulates into the parameters, and
    the graph is dropped before the next chunk is scored — no autograd graph
    outlives one chunk.  ``advantages`` holds one entry per record.
    """
    if len(records) != len(advantages):
        raise ValueError(
            f"{len(records)} records but {len(advantages)} advantages: "
            "each record needs exactly one advantage"
        )
    for start in range(0, len(records), REPLAY_CHUNK):
        chunk = slice(start, start + REPLAY_CHUNK)
        chunk_loss(agent, records[chunk], advantages[chunk], entropy_weight).backward()


def chunk_loss(
    agent: DecimaAgent,
    records: Sequence[ActionRecord],
    advantages: Sequence[float],
    entropy_weight: float,
) -> Tensor:
    """REINFORCE loss of ``records`` scored on one autograd graph.

    ``(log_prob · -advantages).sum() - entropy_weight · entropy.sum()`` over
    the ``(K,)`` vectors :meth:`~repro.core.agent.DecimaAgent.score_actions`
    returns.
    """
    info = agent.score_actions(records)
    weights = Tensor(-np.asarray(advantages, dtype=np.float64))
    return (info.log_prob * weights).sum() - info.entropy.sum() * float(entropy_weight)
