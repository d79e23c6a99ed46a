"""Online learning: close Decima's loop around the live serving path.

The paper's premise is a scheduler that keeps learning from the cluster it
schedules; this package adds that loop on top of the serving subsystem
without touching its decision semantics:

* :mod:`~repro.learning.buffer` — an :class:`ExperienceCollector` taps the
  broker's per-decision observer seam and a bounded :class:`ReplayBuffer`
  cuts the multi-session step stream into replayable episode segments;
* :mod:`~repro.learning.trainer` — background REINFORCE over replayed
  segments (in-process for harnesses, or a worker process via the same pipe
  machinery as parallel training), scoring recorded actions under current
  parameters with :meth:`DecimaAgent.score_actions`;
* :mod:`~repro.learning.manager` — the control loop: drain experience, run
  updates, persist each result as the next
  :class:`~repro.core.checkpoints.CheckpointStore` version, hot-swap it into
  the broker/fleet under a monotonic ``policy_version``, and gate every
  rollout on the SLO counters with automatic rollback to the last good
  checkpoint.

Guarantee worth stating twice: with ``learning_rate=0`` the whole loop —
collection, replay, update, checkpoint, hot-swap — is decision-bit-identical
to frozen serving (the ``frozen_vs_online`` differential pair), so any
behaviour change is attributable to learning itself, never the plumbing.
"""

from .buffer import EpisodeRecord, ExperienceCollector, ExperienceStep, ReplayBuffer
from .manager import OnlineLearningConfig, OnlineLearningManager, RolloutGuard
from .trainer import (
    OnlineReinforceTrainer,
    OnlineTrainerConfig,
    OnlineTrainerPool,
    episode_rewards,
    reinforce_update,
    replay_episode,
)

__all__ = [
    "EpisodeRecord",
    "ExperienceCollector",
    "ExperienceStep",
    "ReplayBuffer",
    "OnlineLearningConfig",
    "OnlineLearningManager",
    "RolloutGuard",
    "OnlineReinforceTrainer",
    "OnlineTrainerConfig",
    "OnlineTrainerPool",
    "episode_rewards",
    "reinforce_update",
    "replay_episode",
]
