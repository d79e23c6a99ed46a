"""Tests for training factories, observation helpers and agent/environment edge cases."""

import numpy as np
import pytest

from repro.core import DecimaAgent, DecimaConfig
from repro.experiments.training import tpch_batch_factory, tpch_poisson_factory
from repro.simulator import (
    SchedulingEnvironment,
    SimulatorConfig,
    default_executor_class,
    multi_resource_config,
)
from repro.simulator.environment import Action
from repro.workloads import batched_arrivals, sample_tpch_jobs


class TestTrainingFactories:
    def test_batch_factory_produces_batched_jobs(self):
        factory = tpch_batch_factory(4, sizes=(2.0, 5.0))
        jobs = factory(np.random.default_rng(0))
        assert len(jobs) == 4
        assert all(job.arrival_time == 0.0 for job in jobs)
        assert all(node.mem_request == 0.0 for job in jobs for node in job.nodes)

    def test_batch_factory_with_memory(self):
        factory = tpch_batch_factory(3, sizes=(2.0,), with_memory=True)
        jobs = factory(np.random.default_rng(1))
        assert any(node.mem_request > 0 for job in jobs for node in job.nodes)

    def test_poisson_factory_assigns_increasing_arrivals(self):
        factory = tpch_poisson_factory(5, mean_interarrival=10.0, sizes=(2.0,))
        jobs = factory(np.random.default_rng(2))
        arrivals = [job.arrival_time for job in jobs]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] > 0.0

    def test_factories_vary_with_generator_state(self):
        factory = tpch_batch_factory(3)
        rng = np.random.default_rng(3)
        first = {job.name for job in factory(rng)}
        second = {job.name for job in factory(rng)}
        assert first != second


class TestObservationHelpers:
    def make_observation(self, config=None):
        config = config or SimulatorConfig(num_executors=6, seed=0)
        rng = np.random.default_rng(0)
        jobs = batched_arrivals(sample_tpch_jobs(2, rng, sizes=(2.0, 5.0)))
        env = SchedulingEnvironment(config)
        return env, env.reset(jobs)

    def test_free_executors_for_single_class(self):
        _, observation = self.make_observation()
        node = observation.schedulable_nodes[0]
        assert observation.free_executors_for(node) == observation.num_free_executors

    def test_free_executors_for_respects_memory(self):
        config = multi_resource_config(total_executors=8, seed=0)
        env, observation = self.make_observation(config)
        node = observation.schedulable_nodes[0]
        node.mem_request = 0.9
        fitting = observation.free_executors_for(node)
        assert fitting < observation.num_free_executors
        assert fitting > 0

    def test_action_binds_executors_to_the_job(self):
        env, observation = self.make_observation()
        node = observation.schedulable_nodes[0]
        expected = min(2, node.remaining_tasks)
        env.step(Action(node=node, parallelism_limit=2))
        # The executors dispatched by the action are now bound to the node's job.
        assert node.job.num_executors >= expected

    def test_executor_classes_sorted_by_memory(self):
        config = multi_resource_config(total_executors=8, seed=0)
        _, observation = self.make_observation(config)
        memories = [cls.memory for cls in observation.executor_classes]
        assert memories == sorted(memories)


class TestAgentEdgeCases:
    def test_agent_state_dict_has_all_parameters(self):
        agent = DecimaAgent(total_executors=6)
        state = agent.state_dict()
        assert len(state) == len(agent.parameters())

    def test_limit_levels_capped_for_large_clusters(self):
        agent = DecimaAgent(total_executors=500)
        assert len(agent._limit_levels) <= 64
        assert agent._limit_levels[-1] == 500

    def test_explicit_limit_level_count(self):
        agent = DecimaAgent(total_executors=100, config=DecimaConfig(num_limit_levels=10))
        assert len(agent._limit_levels) == 10

    def test_one_hot_limit_inputs_have_policy_width(self):
        agent = DecimaAgent(total_executors=8, config=DecimaConfig(limit_value_input=False))
        inputs = agent._limit_inputs(np.array([1, 4, 8]))
        assert inputs.shape == (3, len(agent._limit_levels))
        assert np.allclose(inputs.sum(axis=1), 1.0)

    def test_scalar_limit_inputs_are_fractions(self):
        agent = DecimaAgent(total_executors=8)
        inputs = agent._limit_inputs(np.array([2, 8]))
        assert inputs.shape == (2, 1)
        assert np.allclose(inputs.ravel(), [0.25, 1.0])

    def test_default_executor_class_fits_everything_by_default(self):
        from repro.simulator.jobdag import Node

        node = Node(0, 1, 1.0)
        assert default_executor_class().fits(node)
