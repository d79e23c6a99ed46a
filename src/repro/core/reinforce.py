"""REINFORCE training for Decima (§5.3, Algorithm 1).

The trainer implements the three training techniques the paper introduces:

1. **Curriculum via memoryless termination** — each training episode ends at a
   time ``tau`` drawn from an exponential distribution whose mean grows over
   the course of training, so early episodes are short and later ones approach
   the full streaming setting.
2. **Input-dependent baselines** — the ``N`` episodes of one iteration share
   the *same* job-arrival sequence, and the return baseline at a given wall
   time is the average return of the other episodes at that time.  This
   removes the variance caused by the randomness of job arrivals.
3. **Differential (average) rewards** — a moving average of the per-step
   reward is subtracted from every reward so the agent optimises the
   time-average penalty rather than the episode total (Appendix B).

The step from rewards to advantages is :func:`policy_advantages`, a pure
function that the online learner (:mod:`repro.learning.trainer`) calls too,
so offline and online learning differ only in the baseline they name.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..simulator.environment import SimulatorConfig
from ..simulator.jobdag import JobDAG
from .agent import DecimaAgent
from .nn import Adam
from .parallel import EpisodeOutcome, IterationPlan, RolloutBackend, SerialRolloutBackend

__all__ = [
    "TrainingConfig",
    "IterationStats",
    "TrainingHistory",
    "ReinforceTrainer",
    "policy_advantages",
    "returns_to_go",
    "apply_mean_gradients",
]

JobSequenceFactory = Callable[[np.random.Generator], list[JobDAG]]


@dataclass
class TrainingConfig:
    """Hyper-parameters of the REINFORCE trainer."""

    num_iterations: int = 50
    episodes_per_iteration: int = 4
    learning_rate: float = 1e-3
    entropy_weight: float = 0.01
    entropy_decay: float = 0.95
    # Normalise advantages to unit variance across the iteration's episodes;
    # keeps the policy-gradient and entropy terms on comparable scales when
    # rewards are tiny (short training runs on scaled-down workloads).
    normalize_advantages: bool = True
    # Curriculum: mean episode duration starts small and grows additively.
    initial_episode_time: float = 200.0
    episode_time_growth: float = 20.0
    max_episode_time: float = 5_000.0
    # Variance-reduction switches (Fig. 14 ablations).  The input-dependent
    # baseline also shares one arrival sequence across an iteration's episodes.
    use_input_dependent_baseline: bool = True
    use_differential_reward: bool = True
    reward_baseline_momentum: float = 0.05
    # Safety bound on actions per episode for degenerate early policies.
    max_actions_per_episode: Optional[int] = 3_000
    seed: int = 0


@dataclass
class IterationStats:
    """Per-iteration training statistics (learning-curve material, Fig. 15a)."""

    iteration: int
    mean_total_reward: float
    mean_num_actions: float
    mean_finished_jobs: float
    mean_jct: float
    episode_time: float
    entropy_weight: float


@dataclass
class TrainingHistory:
    iterations: list[IterationStats] = field(default_factory=list)

    def rewards(self) -> np.ndarray:
        return np.array([s.mean_total_reward for s in self.iterations])

    def jcts(self) -> np.ndarray:
        return np.array([s.mean_jct for s in self.iterations])


def returns_to_go(rewards: np.ndarray) -> np.ndarray:
    """Suffix sums: the return from each step to the end of the episode."""
    return np.cumsum(rewards[::-1])[::-1]


def apply_mean_gradients(
    agent: DecimaAgent, optimizer: Adam, gradients: list, num_episodes: int
) -> None:
    """The tail of every REINFORCE update: one optimizer step on the
    per-episode mean of the summed ``gradients``, then clear the agent's."""
    divisor = max(num_episodes, 1)
    optimizer.apply_gradients(
        [None if gradient is None else gradient / divisor for gradient in gradients]
    )
    agent.zero_grad()


def time_aligned_baselines(
    wall_times: list[np.ndarray], returns: list[np.ndarray]
) -> list[np.ndarray]:
    """Input-dependent baselines: cross-episode average return at each action time.

    Episodes sharing the same arrival sequence have different action times, so
    each episode's return curve is linearly interpolated onto the others'
    action times before averaging (the piecewise-linear fit of the paper's
    implementation).
    """
    num_episodes = len(wall_times)
    baselines = []
    for i in range(num_episodes):
        if len(wall_times[i]) == 0:
            baselines.append(np.zeros(0))
            continue
        stacked = np.zeros((num_episodes, len(wall_times[i])))
        for j in range(num_episodes):
            if len(wall_times[j]) == 0:
                continue
            stacked[j] = np.interp(
                wall_times[i],
                wall_times[j],
                returns[j],
                left=returns[j][0],
                right=returns[j][-1],
            )
        baselines.append(stacked.mean(axis=0))
    return baselines


def policy_advantages(
    rewards: list[np.ndarray],
    baseline: str,
    normalize: bool,
    wall_times: Optional[list[np.ndarray]] = None,
    momentum: Optional[float] = None,
    reward_average: Optional[float] = None,
) -> tuple[list[np.ndarray], Optional[float]]:
    """One update's per-episode rewards → per-episode advantage arrays.

    With a ``momentum``, each reward (episode by episode) first moves a
    running average of the per-step reward and has it subtracted: the
    differential transform.  ``reward_average`` carries the average between
    calls (``None``: the first reward seeds it) and is returned with the
    advantages.  Then returns-to-go less the named ``baseline``:
    ``time_aligned`` over episodes that share one arrival sequence (needs
    ``wall_times``), ``iteration_mean`` (the Fig. 14 ablation) or
    ``episode_mean`` (online learning's replayed segments, which share none).
    ``normalize`` scales the advantages to unit std over all episodes.
    """
    if momentum is not None:
        shifted = []
        for episode_rewards in rewards:
            adjusted = np.empty_like(episode_rewards)
            for index, reward in enumerate(episode_rewards):
                if reward_average is None:
                    reward_average = reward
                else:
                    reward_average = (1 - momentum) * reward_average + momentum * reward
                adjusted[index] = reward - reward_average
            shifted.append(adjusted)
        rewards = shifted
    returns = [returns_to_go(episode_rewards) for episode_rewards in rewards]

    if baseline == "time_aligned":
        baselines = time_aligned_baselines(wall_times, returns)
    elif baseline == "iteration_mean":
        nonempty = [r for r in returns if r.size]
        baselines = [float(np.concatenate(nonempty).mean()) if nonempty else 0.0] * len(returns)
    elif baseline == "episode_mean":
        baselines = [float(r.mean()) if r.size else 0.0 for r in returns]
    else:
        raise ValueError(f"unknown baseline {baseline!r}")
    advantages = [r - b for r, b in zip(returns, baselines)]

    if normalize:
        nonempty = [a for a in advantages if a.size]
        scale = float(np.concatenate(nonempty).std()) if nonempty else 0.0
        if scale > 1e-8:
            advantages = [a / scale for a in advantages]
    return advantages, reward_average


class ReinforceTrainer:
    """Policy-gradient training loop for a :class:`DecimaAgent`.

    Episode collection and the per-episode backward passes are delegated to a
    pluggable :class:`~repro.core.parallel.RolloutBackend`.  The default
    :class:`~repro.core.parallel.SerialRolloutBackend` reproduces the original
    single-process trainer bit-for-bit at fixed seeds; pass a
    :class:`~repro.core.parallel.ParallelRolloutBackend` to spread episodes
    over a persistent worker pool (§5.3, Algorithm 1).
    """

    def __init__(
        self,
        agent: DecimaAgent,
        simulator_config: SimulatorConfig,
        job_sequence_factory: JobSequenceFactory,
        config: Optional[TrainingConfig] = None,
        backend: Optional[RolloutBackend] = None,
    ):
        self.agent = agent
        self.simulator_config = simulator_config
        self.job_sequence_factory = job_sequence_factory
        self.config = config or TrainingConfig()
        self.backend = backend or SerialRolloutBackend()
        self.optimizer = Adam(agent.parameters(), learning_rate=self.config.learning_rate)
        self.rng = np.random.default_rng(self.config.seed)
        # Differential reward's running average, carried across iterations.
        self._reward_average: Optional[float] = None
        self.history = TrainingHistory()

    def close(self) -> None:
        """Release backend resources (parallel worker processes)."""
        self.backend.close()

    def __enter__(self) -> "ReinforceTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ train
    def _episode_time(self, iteration: int) -> float:
        mean = min(
            self.config.initial_episode_time + iteration * self.config.episode_time_growth,
            self.config.max_episode_time,
        )
        # Memoryless termination: exponential draw so the agent cannot learn to
        # defer large jobs until a predictable horizon (§5.3, challenge #1).
        return float(self.rng.exponential(mean))

    def train(
        self, callback: Optional[Callable[[IterationStats], None]] = None
    ) -> TrainingHistory:
        for iteration in range(self.config.num_iterations):
            stats = self.train_iteration(iteration)
            self.history.iterations.append(stats)
            if callback is not None:
                callback(stats)
        return self.history

    def train_iteration(self, iteration: int) -> IterationStats:
        config = self.config
        episode_time = self._episode_time(iteration)
        entropy_weight = config.entropy_weight * (config.entropy_decay ** iteration)

        # One job-arrival sequence shared by all episodes of the iteration
        # (input-dependent baseline); the ablation samples a fresh sequence per episode.
        if config.use_input_dependent_baseline:
            shared_sequence = self.job_sequence_factory(self.rng)
            make_jobs = lambda rng: copy.deepcopy(shared_sequence)  # noqa: E731
        else:
            make_jobs = self.job_sequence_factory

        plan = IterationPlan(
            num_episodes=config.episodes_per_iteration,
            episode_time=episode_time,
            make_jobs=make_jobs,
            max_actions=config.max_actions_per_episode,
        )
        episodes = self.backend.collect(self.agent, self.simulator_config, plan, self.rng)

        self._update_policy(episodes, entropy_weight)
        return self._iteration_stats(iteration, episodes, episode_time, entropy_weight)

    # ---------------------------------------------------------------- updates
    def _update_policy(self, episodes: list[EpisodeOutcome], entropy_weight: float) -> None:
        config = self.config
        advantages, self._reward_average = policy_advantages(
            [e.rewards for e in episodes],
            "time_aligned" if config.use_input_dependent_baseline else "iteration_mean",
            config.normalize_advantages,
            wall_times=[e.wall_times for e in episodes],
            momentum=config.reward_baseline_momentum if config.use_differential_reward else None,
            reward_average=self._reward_average,
        )
        # The backward passes run wherever the autograd graphs live — in this
        # process for the serial backend, inside the rollout workers for the
        # parallel one.  Either way the backend returns per-parameter sums.
        gradients = self.backend.compute_gradients(self.agent, advantages, entropy_weight)
        apply_mean_gradients(self.agent, self.optimizer, gradients, len(episodes))

    @staticmethod
    def _iteration_stats(
        iteration: int,
        episodes: list[EpisodeOutcome],
        episode_time: float,
        entropy_weight: float,
    ) -> IterationStats:
        total_rewards = [e.total_reward for e in episodes]
        num_actions = [e.num_actions for e in episodes]
        finished = []
        jcts = []
        for episode in episodes:
            if episode.num_finished_jobs is None:
                continue
            finished.append(episode.num_finished_jobs)
            if episode.average_jct is not None:
                jcts.append(episode.average_jct)
        return IterationStats(
            iteration=iteration,
            mean_total_reward=float(np.mean(total_rewards)) if total_rewards else 0.0,
            mean_num_actions=float(np.mean(num_actions)) if num_actions else 0.0,
            mean_finished_jobs=float(np.mean(finished)) if finished else 0.0,
            mean_jct=float(np.mean(jcts)) if jcts else float("nan"),
            episode_time=episode_time,
            entropy_weight=entropy_weight,
        )
