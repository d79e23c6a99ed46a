"""Unit and integration tests for the Decima agent, rollouts, REINFORCE and checkpoints."""

import numpy as np
import pytest

from _helpers import assert_matches_learner_pin
from repro.core import (
    CheckpointStore,
    DecimaAgent,
    DecimaConfig,
    FeatureConfig,
    ReinforceTrainer,
    TrainingConfig,
    collect_rollout,
    time_aligned_baselines,
)
from repro.core.reinforce import policy_advantages
from repro.simulator import SchedulingEnvironment, SimulatorConfig, multi_resource_config
from repro.simulator.multi_resource import assign_memory_requests
from repro.workloads import batched_arrivals, sample_tpch_jobs
from repro.experiments.runner import run_scheduler_on_jobs
from repro.experiments.training import tpch_batch_factory, train_decima_agent
from repro.verify.oracles import scored_act


def small_env_and_jobs(num_jobs=3, num_executors=6, seed=0):
    rng = np.random.default_rng(seed)
    jobs = batched_arrivals(sample_tpch_jobs(num_jobs, rng, sizes=(2.0, 5.0)))
    config = SimulatorConfig(num_executors=num_executors, seed=seed)
    return SchedulingEnvironment(config), config, jobs


class TestDecimaAgent:
    def test_parameter_count_is_reported(self):
        agent = DecimaAgent(total_executors=10)
        # Same order of magnitude as the paper's 12,736 parameters.
        assert 5_000 < agent.num_parameters() < 20_000

    def test_invalid_executor_count(self):
        with pytest.raises(ValueError):
            DecimaAgent(total_executors=0)

    def test_act_returns_schedulable_node_and_valid_limit(self):
        env, _, jobs = small_env_and_jobs()
        agent = DecimaAgent(total_executors=6)
        observation = env.reset(jobs)
        action, record = agent.act(observation, rng=np.random.default_rng(0), record=True)
        assert action.node in observation.schedulable_nodes
        assert action.parallelism_limit > action.node.job.num_active_executors
        info = agent.score_actions([record])
        assert np.isfinite(info.log_prob.data[0])
        assert info.entropy.data[0] >= 0.0

    def test_act_without_schedulable_nodes(self):
        env, _, jobs = small_env_and_jobs()
        agent = DecimaAgent(total_executors=6)
        observation = env.reset(jobs)
        observation.schedulable_nodes = []
        action, info = agent.act(observation)
        assert action is None and info is None

    def test_greedy_schedule_is_deterministic(self):
        env, _, jobs = small_env_and_jobs()
        agent = DecimaAgent(total_executors=6, config=DecimaConfig(greedy_evaluation=True))
        observation = env.reset(jobs)
        first = agent.schedule(observation)
        second = agent.schedule(observation)
        assert first.node is second.node
        assert first.parallelism_limit == second.parallelism_limit

    def test_no_parallelism_control_uses_all_executors(self):
        env, _, jobs = small_env_and_jobs()
        agent = DecimaAgent(
            total_executors=6, config=DecimaConfig(use_parallelism_control=False)
        )
        observation = env.reset(jobs)
        action, _ = agent.act(observation, rng=np.random.default_rng(0))
        assert action.parallelism_limit == 6

    def test_limit_levels_cover_cluster(self):
        agent = DecimaAgent(total_executors=10)
        assert agent._limit_levels[0] == 1
        assert agent._limit_levels[-1] == 10

    def test_candidate_limits_exceed_current_allocation(self):
        env, _, jobs = small_env_and_jobs()
        agent = DecimaAgent(total_executors=6)
        observation = env.reset(jobs)
        job = observation.job_dags[0]
        limits = agent.candidate_limits(job)
        assert np.all(limits > job.num_active_executors)

    def test_one_hot_limit_encoding_runs(self):
        env, _, jobs = small_env_and_jobs()
        agent = DecimaAgent(total_executors=6, config=DecimaConfig(limit_value_input=False))
        observation = env.reset(jobs)
        action, record = agent.act(observation, rng=np.random.default_rng(0), record=True)
        assert action is not None and record.limits is not None
        assert np.isfinite(agent.score_actions([record]).log_prob.data[0])

    def test_one_hot_limit_level_index_precomputed(self):
        agent = DecimaAgent(total_executors=6, config=DecimaConfig(limit_value_input=False))
        assert agent._limit_level_index == {
            int(level): i for i, level in enumerate(agent._limit_levels)
        }
        one_hot = agent._limit_inputs(agent._limit_levels)
        assert np.array_equal(one_hot, np.eye(len(agent._limit_levels)))
        # Unknown limits fall into the last (largest) level's column.
        overflow = agent._limit_inputs(np.array([agent.total_executors + 5]))
        assert overflow[0, -1] == 1.0

    def test_scored_record_is_the_per_decision_oracle_score(self):
        env, _, jobs = small_env_and_jobs()
        agent = DecimaAgent(total_executors=6)
        observation = env.reset(jobs)
        action, info = scored_act(agent, observation, greedy=True)
        scored = agent.score_actions(
            [agent.record_action(observation, action.node, action.parallelism_limit)]
        )
        assert scored.log_prob.data[0] == info.log_prob.item()
        assert scored.entropy.data[0] == info.entropy.item()

    def test_record_action_rejects_nodes_it_cannot_have_chosen(self):
        env, _, jobs = small_env_and_jobs()
        agent = DecimaAgent(total_executors=6)
        observation = env.reset(jobs)
        schedulable = {id(node) for node in observation.schedulable_nodes}
        blocked = next(
            node
            for job in observation.job_dags
            for node in job.nodes
            if id(node) not in schedulable
        )
        _, _, other_jobs = small_env_and_jobs(seed=1)
        for node in (blocked, other_jobs[0].nodes[0]):  # in the graph / absent
            with pytest.raises(ValueError, match="not a schedulable node"):
                agent.record_action(observation, node, 1)
        with pytest.raises(ValueError, match="not a candidate"):
            agent.record_action(observation, observation.schedulable_nodes[0], 10_000)

    def test_interarrival_hint_requires_feature_flag(self):
        env, _, jobs = small_env_and_jobs()
        config = DecimaConfig(feature=FeatureConfig(include_interarrival_hint=True))
        agent = DecimaAgent(total_executors=6, config=config)
        agent.interarrival_hint = 45.0
        observation = env.reset(jobs)
        action, _ = agent.act(observation, rng=np.random.default_rng(0))
        assert action is not None

    def test_multi_resource_agent_picks_fitting_class(self):
        config = multi_resource_config(total_executors=8, seed=0)
        rng = np.random.default_rng(0)
        jobs = batched_arrivals(sample_tpch_jobs(2, rng, sizes=(2.0,)))
        assign_memory_requests(jobs, seed=0, low=0.3, high=0.9)
        env = SchedulingEnvironment(config)
        agent = DecimaAgent(total_executors=8, config=DecimaConfig(multi_resource=True))
        observation = env.reset(jobs)
        action, _ = agent.act(observation, rng=np.random.default_rng(1))
        assert action.executor_class is not None
        assert action.executor_class.fits(action.node)

    def test_scored_record_scores_the_executor_class_head(self):
        config = multi_resource_config(total_executors=8, seed=0)
        rng = np.random.default_rng(0)
        jobs = batched_arrivals(sample_tpch_jobs(2, rng, sizes=(2.0,)))
        assign_memory_requests(jobs, seed=0, low=0.3, high=0.9)
        agent = DecimaAgent(total_executors=8, config=DecimaConfig(multi_resource=True))
        observation = SchedulingEnvironment(config).reset(jobs)
        action, info = scored_act(agent, observation, np.random.default_rng(1))
        scored = agent.score_actions([
            agent.record_action(
                observation, action.node, action.parallelism_limit,
                executor_class=action.executor_class,
            )
        ])
        assert scored.log_prob.data[0] == info.log_prob.item()
        assert scored.entropy.data[0] == info.entropy.item()
        with pytest.raises(ValueError, match="executor class None is not a candidate"):
            agent.record_action(observation, action.node, action.parallelism_limit)

    def test_agent_completes_episode_as_scheduler(self):
        _, config, jobs = small_env_and_jobs()
        agent = DecimaAgent(total_executors=6)
        result = run_scheduler_on_jobs(agent, jobs, config=config, seed=0)
        assert result.all_finished


class TestRollout:
    def test_rollout_rewards_match_environment_total(self):
        env, _, jobs = small_env_and_jobs()
        agent = DecimaAgent(total_executors=6)
        trajectory = collect_rollout(env, agent, jobs, rng=np.random.default_rng(0), seed=1)
        assert trajectory.result is not None
        assert trajectory.total_reward == pytest.approx(trajectory.result.total_reward)
        assert trajectory.num_actions == trajectory.result.num_actions

    def test_rollout_wall_times_are_monotone(self):
        env, _, jobs = small_env_and_jobs()
        agent = DecimaAgent(total_executors=6)
        trajectory = collect_rollout(env, agent, jobs, rng=np.random.default_rng(0), seed=1)
        times = trajectory.wall_times()
        assert np.all(np.diff(times) >= 0)

    def test_max_actions_bound(self):
        env, _, jobs = small_env_and_jobs()
        agent = DecimaAgent(total_executors=6)
        trajectory = collect_rollout(
            env, agent, jobs, rng=np.random.default_rng(0), seed=1, max_actions=5
        )
        assert trajectory.num_actions <= 5


class TestTimeAlignedBaselines:
    def test_identical_episodes_yield_zero_advantage(self):
        times = [np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0])]
        returns = [np.array([-3.0, -2.0, -1.0]), np.array([-3.0, -2.0, -1.0])]
        baselines = time_aligned_baselines(times, returns)
        for b, r in zip(baselines, returns):
            assert np.allclose(b, r)

    def test_baseline_interpolates_between_episodes(self):
        times = [np.array([0.0, 10.0]), np.array([5.0])]
        returns = [np.array([-10.0, 0.0]), np.array([-4.0])]
        baselines = time_aligned_baselines(times, returns)
        # Episode 1 at t=5 interpolates episode 0's return to -5; average with own -4 is -4.5.
        assert baselines[1][0] == pytest.approx((-5.0 + -4.0) / 2)

    def test_empty_episode_handled(self):
        baselines = time_aligned_baselines([np.array([]), np.array([1.0])], [np.array([]), np.array([-1.0])])
        assert baselines[0].size == 0
        assert baselines[1].size == 1


class TestReinforceTrainer:
    def make_trainer(self, **overrides):
        config = SimulatorConfig(num_executors=5, seed=0)
        agent = DecimaAgent(total_executors=5, config=DecimaConfig(seed=0))
        defaults = dict(
            num_iterations=2,
            episodes_per_iteration=2,
            initial_episode_time=500.0,
            max_actions_per_episode=150,
            seed=0,
        )
        defaults.update(overrides)
        trainer = ReinforceTrainer(
            agent,
            config,
            tpch_batch_factory(2, sizes=(2.0, 5.0)),
            TrainingConfig(**defaults),
        )
        return agent, trainer

    # The settings whose trained parameters are pinned: the defaults, the
    # Fig. 14 ablation without input-dependent variance reduction, and each
    # of the other two variance-reduction switches off.
    PINNED = {
        "defaults": {},
        "fig14_ablation": dict(use_input_dependent_baseline=False),
        "no_differential_reward": dict(use_differential_reward=False),
        "no_normalisation": dict(normalize_advantages=False),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_trained_parameters_are_pinned(self, name):
        agent, trainer = self.make_trainer(**self.PINNED[name])
        trainer.train()
        assert_matches_learner_pin(
            "offline", name, [p.data for p in agent.parameters()]
        )

    def test_training_updates_parameters(self):
        agent, trainer = self.make_trainer()
        before = [p.data.copy() for p in agent.parameters()]
        history = trainer.train()
        after = [p.data for p in agent.parameters()]
        assert len(history.iterations) == 2
        assert any(not np.allclose(b, a) for b, a in zip(before, after))

    def test_curriculum_grows_episode_time(self):
        _, trainer = self.make_trainer(
            num_iterations=1, initial_episode_time=10.0, episode_time_growth=100.0
        )
        draws_early = [trainer._episode_time(0) for _ in range(50)]
        draws_late = [trainer._episode_time(20) for _ in range(50)]
        assert np.mean(draws_late) > np.mean(draws_early)

    def test_episode_time_capped(self):
        _, trainer = self.make_trainer(
            num_iterations=1,
            initial_episode_time=10.0,
            episode_time_growth=1e9,
            max_episode_time=50.0,
        )
        draws = [trainer._episode_time(5) for _ in range(200)]
        assert np.mean(draws) < 200.0

    def test_differential_reward_toggle(self):
        rewards = [np.array([-1.0, -2.0])]
        plain, average = policy_advantages(rewards, "episode_mean", normalize=False)
        # Returns-to-go [-3, -2] less their mean.
        assert np.allclose(plain[0], [-0.5, 0.5])
        assert average is None
        shifted, average = policy_advantages(
            rewards, "episode_mean", normalize=False, momentum=0.5
        )
        # The first reward seeds the average (adjusted 0); the second moves
        # it to -1.5 (adjusted -0.5): returns-to-go [-0.5, -0.5].
        assert np.allclose(shifted[0], [0.0, 0.0])
        assert average == pytest.approx(-1.5)
        # The average is carried in, not re-seeded.
        _, average = policy_advantages(
            [np.array([-1.5])], "episode_mean", normalize=False,
            momentum=0.5, reward_average=-1.0,
        )
        assert average == pytest.approx(-1.25)


    def test_history_statistics_shape(self):
        _, trainer = self.make_trainer()
        history = trainer.train()
        assert history.rewards().shape == (2,)
        stats = history.iterations[0]
        assert stats.mean_num_actions > 0
        assert stats.entropy_weight <= trainer.config.entropy_weight


class TestPolicyAdvantages:
    REWARDS = [np.array([-1.0, -4.0, -2.0]), np.array([-3.0, 0.0]), np.zeros(0)]
    WALL_TIMES = [np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0]), np.zeros(0)]

    def test_episode_mean_advantages_sum_to_zero_per_episode(self):
        advantages, _ = policy_advantages(self.REWARDS, "episode_mean", normalize=False)
        assert [a.size for a in advantages] == [3, 2, 0]
        for episode_advantages in advantages:
            assert episode_advantages.sum() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("baseline", ["time_aligned", "iteration_mean", "episode_mean"])
    def test_normalisation_gives_unit_std(self, baseline):
        advantages, _ = policy_advantages(
            self.REWARDS, baseline, normalize=True, wall_times=self.WALL_TIMES
        )
        assert np.concatenate(advantages).std() == pytest.approx(1.0)

    def test_iteration_mean_subtracts_one_scalar(self):
        advantages, _ = policy_advantages(self.REWARDS, "iteration_mean", normalize=False)
        returns = np.concatenate([[-7.0, -6.0, -2.0], [-3.0, 0.0]])
        assert np.allclose(np.concatenate(advantages), returns - returns.mean())

    def test_time_aligned_matches_the_baseline_function(self):
        advantages, _ = policy_advantages(
            self.REWARDS, "time_aligned", normalize=False, wall_times=self.WALL_TIMES
        )
        returns = [np.array([-7.0, -6.0, -2.0]), np.array([-3.0, 0.0]), np.zeros(0)]
        baselines = time_aligned_baselines(self.WALL_TIMES, returns)
        for a, r, b in zip(advantages, returns, baselines):
            assert np.allclose(a, r - b)

    def test_unknown_baseline_is_refused(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            policy_advantages(self.REWARDS, "no_such_baseline", normalize=False)


class TestCheckpointsAndEvaluation:
    def test_save_and_load_roundtrip(self, tmp_path):
        agent = DecimaAgent(total_executors=6, config=DecimaConfig(seed=1))
        store = CheckpointStore(tmp_path)
        store.save(agent)
        clone = DecimaAgent(total_executors=6, config=DecimaConfig(seed=99))
        clone.load_state_dict(store.load_state())
        for p, q in zip(agent.parameters(), clone.parameters()):
            assert np.allclose(p.data, q.data)

    def test_load_mismatched_architecture_fails(self, tmp_path):
        agent = DecimaAgent(total_executors=6)
        store = CheckpointStore(tmp_path)
        store.save(agent)
        other = DecimaAgent(total_executors=6, config=DecimaConfig(embedding_dim=4))
        with pytest.raises(ValueError):
            other.load_state_dict(store.load_state())

    def test_greedy_evaluation_summary(self):
        _, config, jobs = small_env_and_jobs()
        agent = DecimaAgent(total_executors=6)
        summary = run_scheduler_on_jobs(agent, jobs, config=config, seed=0).summary()
        assert summary["finished_jobs"] == len(jobs)
        assert summary["average_jct"] > 0

    def test_train_decima_agent_helper(self):
        config = SimulatorConfig(num_executors=5, seed=0)
        agent, history = train_decima_agent(
            config,
            tpch_batch_factory(2, sizes=(2.0,)),
            num_iterations=1,
            episodes_per_iteration=1,
            training_config=TrainingConfig(max_actions_per_episode=100, seed=0),
            seed=0,
        )
        assert agent.total_executors == 5
        assert len(history.iterations) == 1
