"""Equivalence suite: sparse frontier message passing + GraphCache vs the dense oracle.

The sparse path and the incremental cache are pure performance work — they
must be numerically indistinguishable from the original formulation.  These
tests pin that down at three levels:

* :class:`GraphNeuralNetwork` forward values and parameter gradients match to
  1e-10 across single-job, multi-job, disconnected-DAG and single-level
  aggregation configurations;
* a :class:`GraphCache` driven through a live episode (arrivals, completions)
  always matches a from-scratch ``build_graph_features`` while rebuilding
  its structure only when the live-job set changes;
* fixed-seed rollouts and training produce identical actions and identical
  (rounded) parameter-hash fingerprints under both paths and both rollout
  backends.

The broad sparse-vs-dense / cached-vs-scratch episode coverage moved to the
differential runner (``tests/test_differential.py``, pairs
``sparse_vs_dense_gnn`` and ``cached_vs_scratch_features``);
``TestEndToEndEquivalence`` below keeps the harness-independent canaries
(sampled-rollout action identity and training-fingerprint parity).
"""

import copy
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _helpers import make_decima_agent, make_tpch_env
from repro.core import (
    DecimaAgent,
    GNNConfig,
    GraphCache,
    GraphNeuralNetwork,
    ParallelRolloutBackend,
    ReinforceTrainer,
    SerialRolloutBackend,
    TrainingConfig,
    build_graph_features,
    parameter_fingerprint,
)
from repro.core.features import GraphStructure
from repro.core.rollout import collect_rollout
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.simulator.environment import Action, Observation
from repro.simulator.jobdag import JobDAG, Node
from repro.workloads import batched_arrivals, sample_tpch_jobs

# End-to-end equivalence (episodes under both backends, training-fingerprint
# parity) dominates the suite's runtime; tier-1 CI deselects it (-m "not
# slow") and the full-suite job on main pushes runs it.
pytestmark = pytest.mark.slow

TOL = 1e-10


def tpch_observation(num_jobs, num_executors=8, seed=0):
    return make_tpch_env(num_jobs=num_jobs, num_executors=num_executors, seed=seed)


def disconnected_observation():
    """A job whose DAG has two separate components plus an isolated node."""
    nodes = [Node(i, num_tasks=2 + i, task_duration=5.0 + i) for i in range(5)]
    job = JobDAG(nodes, edges=[(0, 1), (2, 3)], name="disconnected")
    env = SchedulingEnvironment(SimulatorConfig(num_executors=4, seed=0))
    return env, env.reset([job])


def paired_gnns(seed=0, **overrides):
    sparse = GraphNeuralNetwork(
        GNNConfig(sparse_message_passing=True, **overrides), np.random.default_rng(seed)
    )
    dense = GraphNeuralNetwork(
        GNNConfig(sparse_message_passing=False, **overrides), np.random.default_rng(seed)
    )
    return sparse, dense


def assert_embeddings_and_gradients_match(graph, sparse, dense):
    out_sparse = sparse(graph)
    out_dense = dense(graph)
    np.testing.assert_allclose(
        out_sparse.node_embeddings.data, out_dense.node_embeddings.data, atol=TOL, rtol=0
    )
    np.testing.assert_allclose(
        out_sparse.job_embeddings.data, out_dense.job_embeddings.data, atol=TOL, rtol=0
    )
    np.testing.assert_allclose(
        out_sparse.global_embedding.data, out_dense.global_embedding.data, atol=TOL, rtol=0
    )
    # A loss touching every output head, so gradients reach all parameters.
    weights = np.random.default_rng(7).normal(size=out_sparse.node_embeddings.shape)
    for model, out in ((sparse, out_sparse), (dense, out_dense)):
        model.zero_grad()
        loss = (out.node_embeddings * weights).sum() + out.global_embedding.sum()
        loss.backward()
    for p_sparse, p_dense in zip(sparse.parameters(), dense.parameters()):
        # Parameters unused under the current config (e.g. node_g with
        # single-level aggregation, node_f at depth 0) have no gradient in
        # either model; everything used must match.
        assert (p_sparse.grad is None) == (p_dense.grad is None)
        if p_sparse.grad is not None:
            np.testing.assert_allclose(p_sparse.grad, p_dense.grad, atol=TOL, rtol=0)


class TestSparseDenseEquivalence:
    def test_single_job(self):
        _, observation = tpch_observation(num_jobs=1)
        graph = build_graph_features(observation)
        assert_embeddings_and_gradients_match(graph, *paired_gnns())

    def test_multi_job(self):
        _, observation = tpch_observation(num_jobs=4)
        graph = build_graph_features(observation)
        assert_embeddings_and_gradients_match(graph, *paired_gnns())

    def test_disconnected_dag(self):
        _, observation = disconnected_observation()
        graph = build_graph_features(observation)
        assert_embeddings_and_gradients_match(graph, *paired_gnns())

    def test_single_level_aggregation(self):
        _, observation = tpch_observation(num_jobs=3)
        graph = build_graph_features(observation)
        assert_embeddings_and_gradients_match(
            graph, *paired_gnns(two_level_aggregation=False)
        )

    def test_depth_cap_respected(self):
        _, observation = tpch_observation(num_jobs=2)
        graph = build_graph_features(observation)
        for depth in (0, 1, 2):
            assert_embeddings_and_gradients_match(
                graph, *paired_gnns(max_message_passing_depth=depth)
            )

    def test_cached_graph_matches_scratch_graph_through_gnn(self):
        _, observation = tpch_observation(num_jobs=3)
        sparse, _ = paired_gnns()
        cached = GraphCache().features(observation)
        scratch = build_graph_features(observation)
        np.testing.assert_array_equal(cached.node_features, scratch.node_features)
        np.testing.assert_allclose(
            sparse(cached).node_embeddings.data,
            sparse(scratch).node_embeddings.data,
            atol=TOL,
            rtol=0,
        )


def assert_same_structure(structure, fresh):
    """Every array and index of ``structure`` equals the fresh build's, dtype included."""
    assert all(a is b for a, b in zip(structure.jobs, fresh.jobs))
    assert all(a is b for a, b in zip(structure.nodes, fresh.nodes))
    assert (len(structure.jobs), len(structure.nodes)) == (len(fresh.jobs), len(fresh.nodes))
    assert structure.node_index == fresh.node_index
    assert structure.job_position == fresh.job_position
    assert structure.num_graphs == fresh.num_graphs
    for name in (
        "job_ids", "job_node_offsets", "edge_parent_rows", "edge_child_rows", "num_tasks",
        "task_durations", "node_heights", "job_graph_ids", "adjacency",
    ):
        lhs, rhs = getattr(structure, name), getattr(fresh, name)
        np.testing.assert_array_equal(lhs, rhs, err_msg=name)
        assert lhs.dtype == rhs.dtype, name
    assert len(structure.frontier_levels) == len(fresh.frontier_levels)
    for lhs, rhs in zip(structure.frontier_levels, fresh.frontier_levels):
        assert lhs.height == rhs.height
        for name in ("target_rows", "child_rows", "message_rows", "target_segments"):
            np.testing.assert_array_equal(getattr(lhs, name), getattr(rhs, name), err_msg=name)
            assert getattr(lhs, name).dtype == getattr(rhs, name).dtype, name


def assert_cache_matches_scratch(cached, observation):
    scratch = build_graph_features(observation)
    np.testing.assert_array_equal(cached.node_features, scratch.node_features)
    np.testing.assert_array_equal(cached.schedulable_mask, scratch.schedulable_mask)
    assert_same_structure(cached.structure, scratch.structure)


@st.composite
def job_sets(draw):
    """1-6 small jobs: single-stage jobs, edgeless jobs and duplicate edges included."""
    jobs = []
    for _ in range(draw(st.integers(1, 6))):
        num_nodes = draw(st.integers(1, 5))
        pairs = [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
        nodes = [
            Node(i, num_tasks=draw(st.integers(1, 4)), task_duration=float(draw(st.integers(1, 9))))
            for i in range(num_nodes)
        ]
        jobs.append(JobDAG(nodes, edges))
    return jobs


def observation_of(jobs, source_job=None, num_free_executors=3):
    return Observation(
        wall_time=0.0,
        job_dags=list(jobs),
        schedulable_nodes=[node for job in jobs for node in job.runnable_nodes],
        num_free_executors=num_free_executors,
        free_executors_by_class=Counter(),
        source_job=source_job,
        total_executors=8,
        executor_classes=[],
        num_jobs_in_system=len(jobs),
    )


def run_one_task(node):
    """Change ``node``'s counters the way the simulator does (touch-logged)."""
    node.finish_task(node.dispatch_task(), wall_time=1.0)


class TestGraphCacheProperty:
    def check_departures(self, jobs, keep_masks, touched, reuse_buffers):
        """Shrink ``jobs`` mask by mask; every time the cache must edit its
        structure into exactly the fresh build and serve the step as a delta."""
        cache = GraphCache()
        first = cache.features(observation_of(jobs, jobs[-1]), reuse_buffers=reuse_buffers)
        assert_cache_matches_scratch(first, observation_of(jobs, jobs[-1]))
        for step, keep in enumerate(keep_masks, start=1):
            for index in touched:
                job = jobs[index % len(jobs)]
                node = job.nodes[index % job.num_nodes]
                if not node.saturated:
                    run_one_task(node)
            source = jobs[touched[0] % len(jobs)] if touched else None
            jobs = [job for job, kept in zip(jobs, keep) if kept]
            observation = observation_of(jobs, source, num_free_executors=step)
            cached = cache.features(observation, reuse_buffers=reuse_buffers)
            assert_cache_matches_scratch(cached, observation)
            assert cache.num_rebuilds == 1 + step
            assert (cache.num_full_refreshes, cache.num_delta_refreshes) == (1, step)
            if not jobs:
                break

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), reuse_buffers=st.booleans())
    def test_departures_edit_the_structure_into_the_fresh_build(self, data, reuse_buffers):
        jobs = data.draw(job_sets())
        keep_masks = []
        remaining = len(jobs)
        while remaining and len(keep_masks) < 3:
            keep = data.draw(
                st.lists(st.booleans(), min_size=remaining, max_size=remaining).filter(
                    lambda mask: not all(mask)
                )
            )
            keep_masks.append(keep)
            remaining = sum(keep)
        touched = data.draw(st.lists(st.integers(0, 100), max_size=6))
        self.check_departures(jobs, keep_masks, touched, reuse_buffers)

    @pytest.mark.parametrize("reuse_buffers", [False, True])
    @pytest.mark.parametrize(
        "removed",
        [{0}, {4}, {1, 2, 4}, {0, 1, 2, 3}, {1, 2, 3, 4}, {0, 1, 2, 3, 4}],
        ids=["first", "last", "several", "all-but-last", "all-but-first", "all"],
    )
    def test_named_departure_patterns(self, removed, reuse_buffers):
        rng = np.random.default_rng(4)
        jobs = sample_tpch_jobs(5, rng, sizes=(2.0, 5.0))
        keep = [index not in removed for index in range(5)]
        self.check_departures(jobs, [keep], [0, 7, 13, 22], reuse_buffers)

    def test_anything_but_departures_takes_the_full_build(self):
        a, b, c, d = sample_tpch_jobs(4, np.random.default_rng(5), sizes=(2.0,))
        for label, later in (
            ("reorder", [b, a]), ("arrival", [a, b, c, d]), ("swap", [a, d]),
            ("new episode", copy.deepcopy([a, b, c])),
        ):
            cache = GraphCache()
            cache.features(observation_of([a, b, c]))
            observation = observation_of(later)
            assert_cache_matches_scratch(cache.features(observation), observation)
            assert (cache.num_rebuilds, cache.num_full_refreshes) == (2, 2), label

    def run_episode_comparing(self, env, observation, max_steps=200):
        """Drive an episode with a cheap deterministic policy, comparing the
        cache against a from-scratch build at every scheduling point."""
        cache = GraphCache()
        rng = np.random.default_rng(3)
        steps = 0
        transitions = 0
        previous_job_set = None
        while observation is not None and steps < max_steps:
            cached = cache.features(observation)
            assert_cache_matches_scratch(cached, observation)
            job_set = tuple(id(job) for job in observation.job_dags)
            if job_set != previous_job_set:
                transitions += 1
                previous_job_set = job_set

            candidates = np.flatnonzero(cached.schedulable_mask)
            node = cached.nodes[int(rng.choice(candidates))]
            observation, _, done = env.step(Action(node=node, parallelism_limit=2))
            steps += 1
            if done:
                break
        return cache, steps, transitions

    def test_cache_matches_scratch_across_arrivals_and_completions(self):
        rng = np.random.default_rng(0)
        jobs = sample_tpch_jobs(5, rng, sizes=(2.0, 5.0))
        # Staggered arrivals so the live-job set changes mid-episode.
        for index, job in enumerate(jobs):
            job.arrival_time = float(index * 40.0)
        env = SchedulingEnvironment(SimulatorConfig(num_executors=3, seed=0))
        observation = env.reset(jobs)
        cache, steps, transitions = self.run_episode_comparing(env, observation)
        assert steps > 10
        # The episode really exercised arrivals/completions...
        assert transitions > 1
        # ...and the cache rebuilt once per live-job-set change, not per step.
        assert cache.num_rebuilds == transitions
        assert cache.num_rebuilds < steps

    def test_structure_reused_between_steps(self):
        env, observation = tpch_observation(num_jobs=2, num_executors=2)
        cache = GraphCache()
        first = cache.features(observation)
        second = cache.features(env.observe())
        assert first.structure is second.structure
        assert cache.num_rebuilds == 1
        # Dynamic arrays are fresh objects each step (autograd graphs keep
        # references to them, so they must never be refreshed in place).
        assert first.node_features is not second.node_features

    def test_reset_forces_rebuild(self):
        env, observation = tpch_observation(num_jobs=2)
        cache = GraphCache()
        cache.features(observation)
        cache.reset()
        cache.features(env.observe())
        assert cache.num_rebuilds == 2


def make_agent(sparse: bool, executors: int = 8, **overrides) -> DecimaAgent:
    return make_decima_agent(
        total_executors=executors, seed=0, sparse=sparse, **overrides
    )


class TestDataPathEquivalence:
    """The inference data path vs the forward REINFORCE trains on.

    ``forward_data`` must reproduce the autograd forward, and a sampled
    episode decided on the data path (``collect_rollout``, which is how every
    trainer rolls out) must be the episode ``act(training=True)`` decides —
    the retained-graph forward the chunked replay reproduces at update time.
    """

    def test_forward_data_matches_tensor_forward(self):
        _, observation = tpch_observation(num_jobs=3)
        graph = build_graph_features(observation)
        gnn = GraphNeuralNetwork(GNNConfig(), np.random.default_rng(0))
        nodes, jobs, global_emb = gnn.forward_data(graph)
        oracle = gnn(graph)
        np.testing.assert_allclose(
            nodes, oracle.node_embeddings.data, atol=TOL, rtol=0
        )
        np.testing.assert_allclose(
            jobs, oracle.job_embeddings.data, atol=TOL, rtol=0
        )
        np.testing.assert_allclose(
            global_emb, oracle.global_embedding.data, atol=TOL, rtol=0
        )

    def test_sampled_rollout_identical_across_backends(self):
        def setup():
            rng = np.random.default_rng(0)
            jobs = batched_arrivals(sample_tpch_jobs(3, rng, sizes=(2.0, 5.0)))
            env = SchedulingEnvironment(SimulatorConfig(num_executors=8, seed=0))
            return env, make_agent(True), copy.deepcopy(jobs)

        env, agent, jobs = setup()
        data_path = collect_rollout(
            env, agent, jobs, rng=np.random.default_rng(1), seed=5, max_actions=120
        )
        env, agent, jobs = setup()
        rng = np.random.default_rng(1)
        observation = env.reset(jobs, seed=5)
        wall_times, rewards = [], []
        done = False
        while not done and len(rewards) < 120:  # collect_rollout's loop, autograd
            action, info = agent.act(observation, rng=rng, greedy=False, training=True)
            assert (info is None) == (action is None)
            wall_time = env.wall_time
            observation, reward, done = env.step(action)
            if action is not None:
                wall_times.append(wall_time)
                rewards.append(reward)
        assert data_path.num_actions == len(rewards) > 20
        np.testing.assert_array_equal(data_path.rewards(), rewards)
        np.testing.assert_array_equal(data_path.wall_times(), wall_times)


class TestEndToEndEquivalence:
    def rollout(self, sparse: bool):
        rng = np.random.default_rng(0)
        jobs = batched_arrivals(sample_tpch_jobs(3, rng, sizes=(2.0, 5.0)))
        env = SchedulingEnvironment(SimulatorConfig(num_executors=8, seed=0))
        agent = make_agent(sparse)
        return collect_rollout(
            env, agent, copy.deepcopy(jobs), rng=np.random.default_rng(1), seed=5,
            max_actions=120,
        )

    def test_sampled_rollout_actions_identical(self):
        sparse = self.rollout(sparse=True)
        dense = self.rollout(sparse=False)
        assert sparse.num_actions == dense.num_actions
        np.testing.assert_array_equal(sparse.rewards(), dense.rewards())
        np.testing.assert_array_equal(sparse.wall_times(), dense.wall_times())

    def train_fingerprint(self, sparse: bool, backend_factory):
        agent = make_agent(sparse, executors=6)
        trainer = ReinforceTrainer(
            agent,
            SimulatorConfig(num_executors=6, seed=0),
            lambda rng: batched_arrivals(sample_tpch_jobs(2, rng, sizes=(2.0, 5.0))),
            TrainingConfig(
                num_iterations=1,
                episodes_per_iteration=2,
                initial_episode_time=500.0,
                max_actions_per_episode=80,
                seed=0,
            ),
            backend=backend_factory(),
        )
        with trainer:
            trainer.train()
        return parameter_fingerprint(agent)

    def test_training_fingerprints_match_serial_backend(self):
        assert self.train_fingerprint(True, SerialRolloutBackend) == \
            self.train_fingerprint(False, SerialRolloutBackend)

    def test_training_fingerprints_match_parallel_backend(self):
        factory = lambda: ParallelRolloutBackend(num_workers=2)  # noqa: E731
        assert self.train_fingerprint(True, factory) == \
            self.train_fingerprint(False, factory)

    # Greedy sparse-vs-dense evaluation equivalence is now covered (more
    # thoroughly, decision by decision) by the differential runner:
    # tests/test_differential.py::TestImplementationPairs.
