"""Background REINFORCE over replayed serving experience.

The update rule is the paper's policy gradient (§5.3, Algorithm 1) applied to
experience the serving path already produced instead of freshly collected
rollouts.  Rewards are recomputed from consecutive experience snapshots with
the simulator's own shaping — ``r_k = -(t_{k+1} - t_k) · J_k · scale``, the
time-integrated number of jobs in the system whose sum telescopes to the
(scaled) total job completion time — so the trainer needs nothing from the
client clusters beyond what every ``decide`` request already carries.

Replay runs each recorded segment's snapshots through a fresh
:class:`~repro.service.session.SessionState` (the same reconciliation code
the servers run) and turns every recorded action into the plain-numpy
:class:`~repro.core.agent.ActionRecord` the offline rollouts produce
(:meth:`DecimaAgent.record_action`, step by step — the shadow DAGs move on
with every snapshot).  The records are then scored under the *current*
parameters by the offline trainer's own chunked routine
(:func:`~repro.core.rollout.accumulate_record_gradients`), so the trainer
process never holds more than one chunk's autograd graph.  Only
``source == "policy"`` steps contribute gradient terms — fallback and noop
answers still contribute their time deltas to the returns, but there is no
policy choice to differentiate through.

Two trainer fronts share the same ``update(state, episodes)`` contract:

* :class:`OnlineReinforceTrainer` — in-process, used by the differential
  harness and tests (no process overhead, fully deterministic);
* :class:`OnlineTrainerPool` — a one-worker
  :class:`~repro.core.parallel.PipeWorkerPool` running the identical update
  in a background *process*, so replay forwards and backwards never steal
  cycles from the serving path (the paper's agent/trainer split).

Both keep the Adam optimizer alive across updates, so its moment estimates
accumulate exactly as in offline training.  With ``learning_rate=0`` the
Adam step is bit-neutral (``param - 0 · m̂/(√v̂+ε)`` preserves every bit),
which is what the ``frozen_vs_online`` differential pair pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.agent import DecimaAgent
from ..core.checkpoints import AgentSpec, build_agent
from ..core.nn import Adam
from ..core.parallel import PipeWorkerPool
from ..core.reinforce import apply_mean_gradients, returns_to_go
from ..core.rollout import accumulate_record_gradients
from ..service.session import SessionState
from .buffer import EpisodeRecord

__all__ = [
    "OnlineReinforceTrainer",
    "OnlineTrainerConfig",
    "OnlineTrainerPool",
    "episode_rewards",
    "reinforce_update",
    "replay_episode",
]


@dataclass
class OnlineTrainerConfig:
    """Hyper-parameters of the background update (picklable)."""

    learning_rate: float = 1e-3
    entropy_weight: float = 0.0
    # Matches SimulatorConfig.reward_scale so online returns live on the same
    # scale as offline training's.
    reward_scale: float = 1e-3


def episode_rewards(steps, reward_scale: float) -> np.ndarray:
    """Per-step rewards recomputed from consecutive snapshots.

    The last step has no successor timestamp inside the segment, so its
    reward is zero — segments are long enough (``ReplayBuffer.segment_steps``)
    that the truncation bias is small.
    """
    rewards = np.zeros(len(steps))
    for index in range(len(steps) - 1):
        delta = float(steps[index + 1].wall_time) - float(steps[index].wall_time)
        rewards[index] = -delta * float(steps[index].num_jobs_in_system) * reward_scale
    return rewards


def replay_episode(agent: DecimaAgent, episode: EpisodeRecord) -> list:
    """Rebuild the decision record of each recorded policy action.

    Returns one entry per step: an :class:`~repro.core.agent.ActionRecord`
    for scoreable policy steps, ``None`` for noop/fallback steps (and for the
    rare step whose recorded action is no longer a valid choice after
    replay — e.g. a snapshot raced a job completion).
    """
    first = episode.steps[0]
    session = SessionState(
        session_id=f"replay-{episode.session_id}",
        num_executors=int(first.snapshot.get("total_executors", agent.total_executors)),
    )
    records = []
    for step in episode.steps:
        observation = session.observation_from_snapshot(step.snapshot)
        if step.action is None or step.source != "policy":
            records.append(None)
            continue
        try:
            node = session.resolve_node(step.action["job_id"], step.action["node_id"])
            records.append(
                agent.record_action(
                    observation,
                    node,
                    step.action["limit"],
                    graph_cache=session.graph_cache,
                )
            )
        except (KeyError, ValueError):
            records.append(None)
    return records


def reinforce_update(
    agent: DecimaAgent,
    optimizer: Adam,
    episodes: list,
    config: OnlineTrainerConfig,
) -> dict:
    """One REINFORCE step over replayed serving episodes; returns stats.

    Shares the offline trainer's two ends (:func:`returns_to_go`,
    :func:`apply_mean_gradients`): per-episode chunked backward passes into
    summed gradients, then one Adam step on their per-episode mean.  The
    baseline in between differs — it is each episode's mean return (the
    offline time-aligned baseline needs same-arrival-sequence episode groups,
    which live serving traffic does not provide).
    """
    agent.zero_grad()
    num_terms = 0
    total_return = 0.0
    for episode in episodes:
        rewards = episode_rewards(episode.steps, config.reward_scale)
        returns = returns_to_go(rewards)
        baseline = float(returns.mean()) if returns.size else 0.0
        records = replay_episode(agent, episode)
        scored = [index for index, record in enumerate(records) if record is not None]
        accumulate_record_gradients(
            agent,
            [records[index] for index in scored],
            (returns - baseline)[scored],
            config.entropy_weight,
        )
        num_terms += len(scored)
        total_return += float(returns[0]) if returns.size else 0.0
    apply_mean_gradients(
        agent, optimizer, [p.grad for p in agent.parameters()], len(episodes)
    )
    agent.reset_graph_cache()
    return {
        "num_episodes": len(episodes),
        "num_policy_terms": num_terms,
        "mean_return": total_return / max(len(episodes), 1),
        "learning_rate": config.learning_rate,
    }


class OnlineReinforceTrainer:
    """In-process trainer: one shadow agent + persistent Adam moments."""

    def __init__(self, spec: AgentSpec, config: Optional[OnlineTrainerConfig] = None):
        self.config = config if config is not None else OnlineTrainerConfig()
        self.agent = build_agent(spec)
        self.optimizer = Adam(
            self.agent.parameters(), learning_rate=self.config.learning_rate
        )

    def update(self, state: dict, episodes: list) -> tuple[dict, dict]:
        """Refresh weights from ``state``, run one update, return new weights."""
        self.agent.load_state_dict(state)
        stats = reinforce_update(self.agent, self.optimizer, episodes, self.config)
        return self.agent.state_dict(), stats

    def close(self) -> None:  # symmetric with OnlineTrainerPool
        pass


def _trainer_worker(spec: AgentSpec, config: OnlineTrainerConfig) -> dict:
    """The trainer process: an :class:`OnlineReinforceTrainer` serving
    ``update(state_dict, [EpisodeRecord])`` → ``(new_state_dict, stats)``."""
    return {"update": OnlineReinforceTrainer(spec, config).update}


class OnlineTrainerPool(PipeWorkerPool):
    """The background trainer process (same update, off the serving path)."""

    def __init__(self, spec: AgentSpec, config: Optional[OnlineTrainerConfig] = None):
        config = config if config is not None else OnlineTrainerConfig()
        super().__init__(
            1, _trainer_worker, lambda index: (spec, config), description="online trainer"
        )

    def update(self, state: dict, episodes: list) -> tuple[dict, dict]:
        """Ship weights + episodes to the trainer process; get both back."""
        (reply,) = self.run("update", [(state, episodes)])
        return reply
