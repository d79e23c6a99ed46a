"""Tests for the rollout-backend seam: serial/parallel equivalence, the
worker pool's lifecycle, and regression guards on the trainer's defaults."""

import copy
import time

import numpy as np
import pytest

from _helpers import make_training_setup
from repro.core import (
    DecimaAgent,
    DecimaConfig,
    EpisodeSpec,
    ParallelRolloutBackend,
    ReinforceTrainer,
    RolloutWorkerPool,
    SerialRolloutBackend,
    TrainingConfig,
    agent_spec,
    build_agent,
)
from repro.core.parallel import (
    PipeWorkerPool,
    episode_environment,
    outcome_from_trajectory,
    single_threaded_blas,
)
from repro.core.rollout import collect_rollout
from repro.experiments.training import tpch_batch_factory, train_decima_agent
from repro.service.fleet import _shard_worker
from repro.simulator import SimulatorConfig
from repro.workloads import batched_arrivals, sample_tpch_jobs


def small_setup(seed=0):
    return make_training_setup(seed=seed, num_executors=5)


def train_params(backend=None, **overrides):
    config, agent, factory = small_setup()
    defaults = dict(
        num_iterations=2,
        episodes_per_iteration=2,
        initial_episode_time=400.0,
        max_actions_per_episode=60,
        seed=0,
    )
    defaults.update(overrides)
    trainer = ReinforceTrainer(
        agent, config, factory, TrainingConfig(**defaults), backend=backend
    )
    with trainer:
        history = trainer.train()
    return [p.data.copy() for p in agent.parameters()], history


class TestAgentSpec:
    def test_build_agent_matches_architecture(self):
        _, agent, _ = small_setup(seed=3)
        clone = build_agent(agent_spec(agent), state=agent.state_dict())
        assert clone.num_parameters() == agent.num_parameters()
        for p, q in zip(agent.parameters(), clone.parameters()):
            assert np.array_equal(p.data, q.data)

    def test_spec_is_decoupled_from_source_agent(self):
        _, agent, _ = small_setup()
        spec = agent_spec(agent)
        agent.config.embedding_dim = 999
        assert spec.config.embedding_dim != 999

    def test_an_oracle_agent_cannot_cross_a_process_boundary(self):
        """A worker would rebuild a plain DecimaAgent, so a pair run that way
        would compare the fast path with itself."""
        from repro.verify.oracles import DenseGNNAgent

        with pytest.raises(TypeError, match="DenseGNNAgent"):
            agent_spec(DenseGNNAgent(total_executors=4, config=DecimaConfig(seed=0)))


class TestSerialBackend:
    def test_default_backend_is_serial(self):
        config, agent, factory = small_setup()
        trainer = ReinforceTrainer(agent, config, factory)
        assert isinstance(trainer.backend, SerialRolloutBackend)

    def test_explicit_serial_backend_matches_default(self):
        params_default, history_default = train_params(backend=None)
        params_serial, history_serial = train_params(backend=SerialRolloutBackend())
        for p, q in zip(params_default, params_serial):
            assert np.array_equal(p, q)
        assert np.array_equal(history_default.rewards(), history_serial.rewards())

    def test_fixed_seed_training_is_deterministic(self):
        params_a, _ = train_params()
        params_b, _ = train_params()
        for p, q in zip(params_a, params_b):
            assert np.array_equal(p, q)


class TestPooledEpisodeEquivalence:
    def test_pooled_episode_matches_in_process_run(self):
        """An episode collected through the worker pool is bit-identical to the
        same EpisodeSpec run in-process: pooled collection only moves work, it
        never changes results."""
        config, agent, _ = small_setup()
        rng = np.random.default_rng(7)
        jobs = batched_arrivals(sample_tpch_jobs(2, rng, sizes=(2.0,)))
        spec = EpisodeSpec(
            jobs=copy.deepcopy(jobs),
            episode_time=400.0,
            env_seed=11,
            action_seed=13,
            max_actions=60,
        )
        local = outcome_from_trajectory(
            collect_rollout(
                episode_environment(config, spec.episode_time),
                agent,
                copy.deepcopy(spec.jobs),
                rng=np.random.default_rng(spec.action_seed),
                seed=spec.env_seed,
                max_actions=spec.max_actions,
            )
        )
        with RolloutWorkerPool(config, agent_spec(agent), num_workers=1) as pool:
            (pooled,) = pool.map("collect", [spec], agent.state_dict(), None)
        assert np.array_equal(local.rewards, pooled.rewards)
        assert np.array_equal(local.wall_times, pooled.wall_times)
        assert local.num_finished_jobs == pooled.num_finished_jobs

    def test_parallel_training_invariant_to_worker_count(self):
        params_one, history_one = train_params(
            backend=ParallelRolloutBackend(num_workers=1)
        )
        params_three, history_three = train_params(
            backend=ParallelRolloutBackend(num_workers=3)
        )
        for p, q in zip(params_one, params_three):
            assert np.array_equal(p, q)
        assert np.array_equal(history_one.rewards(), history_three.rewards())

    def test_parallel_history_matches_serial_shape_and_semantics(self):
        params_serial, serial = train_params(backend=SerialRolloutBackend())
        params_parallel, parallel = train_params(
            backend=ParallelRolloutBackend(num_workers=2)
        )
        assert len(parallel.iterations) == len(serial.iterations)
        assert parallel.rewards().shape == serial.rewards().shape
        for stats in parallel.iterations:
            assert np.isfinite(stats.mean_total_reward)
            assert stats.mean_num_actions > 0
            assert stats.mean_finished_jobs >= 0
            assert stats.episode_time > 0
        # The parallel stream differs from serial (episode seeds are drawn up
        # front), but learning still happens: parameters moved from init.
        init = DecimaAgent(total_executors=5, config=DecimaConfig(seed=0))
        assert any(
            not np.allclose(p, q)
            for p, q in zip(params_parallel, [x.data for x in init.parameters()])
        )


class TestWorkerPoolLifecycle:
    def test_pool_persists_across_iterations(self):
        config, agent, factory = small_setup()
        backend = ParallelRolloutBackend(num_workers=2)
        trainer = ReinforceTrainer(
            agent,
            config,
            factory,
            TrainingConfig(
                num_iterations=2,
                episodes_per_iteration=2,
                initial_episode_time=300.0,
                max_actions_per_episode=40,
                seed=0,
            ),
            backend=backend,
        )
        with trainer:
            trainer.train_iteration(0)
            pool_after_first = backend.pool
            assert pool_after_first is not None and pool_after_first.is_alive
            trainer.train_iteration(1)
            assert backend.pool is pool_after_first
        assert backend.pool is None
        assert not pool_after_first.is_alive

    def test_close_is_idempotent_and_collect_restarts_pool(self):
        config, agent, _ = small_setup()
        backend = ParallelRolloutBackend(num_workers=2)
        trainer = ReinforceTrainer(
            agent,
            config,
            tpch_batch_factory(2, sizes=(2.0,)),
            TrainingConfig(
                num_iterations=1,
                episodes_per_iteration=2,
                initial_episode_time=300.0,
                max_actions_per_episode=40,
                seed=0,
            ),
            backend=backend,
        )
        trainer.train_iteration(0)
        backend.close()
        backend.close()
        # A new iteration transparently restarts the pool.
        stats = trainer.train_iteration(1)
        assert backend.pool is not None and backend.pool.is_alive
        assert stats.mean_num_actions > 0
        backend.close()

    def test_invalid_worker_count_rejected(self):
        config, agent, _ = small_setup()
        with pytest.raises(ValueError):
            RolloutWorkerPool(config, agent_spec(agent), num_workers=0)
        with pytest.raises(ValueError):
            ParallelRolloutBackend(num_workers=0)


def _gemm_probe():
    """Time tall gemms (the shape of a merged replay chunk) in a pool process."""
    left, right = np.ones((20_000, 32)), np.ones((32, 16))
    # The BLAS threads a forked worker inherits spin for ~0.15 s before
    # they go to sleep for good; measure after that.
    settled = time.perf_counter() + 0.5
    while time.perf_counter() < settled:
        left @ right
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(200):
        left @ right
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return single_threaded_blas(), wall, cpu


def _gemm_probe_worker():
    return {"probe": _gemm_probe}


def _probing_shard_worker():
    """A fleet shard as the fleet starts it, with the probe beside its commands."""
    agent = DecimaAgent(total_executors=5, config=DecimaConfig(seed=0))
    commands = _shard_worker(agent_spec(agent), agent.state_dict(), "127.0.0.1", {})
    return {**commands, "probe": _gemm_probe}


class TestWorkersRunSingleThreadedBlas:
    @pytest.mark.parametrize("worker", [_gemm_probe_worker, _probing_shard_worker])
    def test_pool_worker_gemms_stay_on_one_thread(self, worker):
        with PipeWorkerPool(1, worker, lambda index: ()) as pool:
            ((limited, wall, cpu),) = pool.run("probe", [()])
        if not limited:
            pytest.skip("no OpenBLAS found in the worker process")
        # A BLAS thread pool would burn ~one extra core per thread here.
        assert cpu <= 1.25 * wall + 0.05


class TestTrainDecimaAgentWorkers:
    def test_num_workers_flows_through_helper(self):
        config = SimulatorConfig(num_executors=5, seed=0)
        agent, history = train_decima_agent(
            config,
            tpch_batch_factory(2, sizes=(2.0,)),
            num_iterations=1,
            episodes_per_iteration=2,
            training_config=TrainingConfig(
                max_actions_per_episode=40, initial_episode_time=300.0, seed=0
            ),
            seed=0,
            num_workers=2,
        )
        assert len(history.iterations) == 1
        assert history.iterations[0].mean_num_actions > 0

    def test_non_positive_worker_count_rejected(self):
        config = SimulatorConfig(num_executors=5, seed=0)
        with pytest.raises(ValueError, match="num_workers"):
            train_decima_agent(
                config,
                tpch_batch_factory(2, sizes=(2.0,)),
                num_iterations=1,
                episodes_per_iteration=1,
                num_workers=0,
            )


class TestTrainingConfigDefaults:
    def test_defaults_are_unchanged(self):
        """Regression guard: the backend refactor must not move hyper-parameters."""
        config = TrainingConfig()
        assert config.num_iterations == 50
        assert config.episodes_per_iteration == 4
        assert config.learning_rate == 1e-3
        assert config.entropy_weight == 0.01
        assert config.entropy_decay == 0.95
        assert config.normalize_advantages is True
        assert config.initial_episode_time == 200.0
        assert config.episode_time_growth == 20.0
        assert config.max_episode_time == 5_000.0
        assert config.use_input_dependent_baseline is True
        assert config.fix_job_sequence_per_iteration is True
        assert config.use_differential_reward is True
        assert config.reward_baseline_momentum == 0.05
        assert config.max_actions_per_episode == 3_000
        assert config.seed == 0
