"""Episode rollout collection for REINFORCE training."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..autograd import Tensor
from ..simulator.environment import SchedulingEnvironment
from ..simulator.jobdag import JobDAG
from ..simulator.metrics import SimulationResult
from .agent import ActionRecord, DecimaAgent

__all__ = [
    "REPLAY_CHUNK",
    "Transition",
    "Trajectory",
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


def collect_rollout(
    environment: SchedulingEnvironment,
    agent: DecimaAgent,
    jobs: list[JobDAG],
    rng: np.random.Generator,
    seed: Optional[int] = None,
    max_actions: Optional[int] = None,
    step_hook: Optional[Callable] = None,
) -> Trajectory:
    """Run one sampled episode of ``agent`` and record per-action training data.

    Actions are *sampled* from the policy (not arg-maxed) so the policy
    gradient explores, on the inference data path: ``agent.act`` is called
    exactly once per decision and hands the decision's record back beside
    the action.  ``max_actions`` is a safety bound for degenerate
    policies early in training.  ``step_hook`` is an instrumentation seam for
    the verification harness: when given, it is called as
    ``step_hook(step_index, observation, action, record, wall_time)`` *before*
    the step executes (stepping mutates the live job DAGs the observation
    references); if it returns a callable, that is invoked with the step's
    reward once the step completes.  Hooks must not mutate their arguments.
    """
    trajectory = Trajectory()
    # Episode boundary: the job DAGs are fresh objects, so drop the agent's
    # cached graph structure from any previous episode.
    agent.reset_graph_cache()
    observation = environment.reset(jobs, seed=seed)
    done = False
    step_index = 0
    while not done:
        action, record = agent.act(observation, rng=rng, greedy=False, record=True)
        wall_time = environment.wall_time
        finish_hook = (
            step_hook(step_index, observation, action, record, wall_time)
            if step_hook is not None
            else None
        )
        observation, reward, done = environment.step(action)
        if callable(finish_hook):
            finish_hook(reward)
        step_index += 1
        if record is not None:
            trajectory.transitions.append(Transition(record, reward, wall_time))
        if max_actions is not None and trajectory.num_actions >= max_actions:
            break
    trajectory.result = environment.result()
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
