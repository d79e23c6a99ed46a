"""Unit tests for feature extraction, the graph neural network and the policy network."""

import numpy as np
import pytest

from repro.core import (
    FeatureConfig,
    GNNConfig,
    GraphNeuralNetwork,
    GraphStructure,
    PolicyConfig,
    PolicyNetwork,
)
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.verify.oracles import build_graph_features, dense_adjacency
from repro.workloads import batched_arrivals, fork_join_job, make_tpch_job, sample_tpch_jobs


def live_observation(num_jobs=3, num_executors=8, seed=0):
    rng = np.random.default_rng(seed)
    jobs = batched_arrivals(sample_tpch_jobs(num_jobs, rng, sizes=(2.0, 5.0)))
    env = SchedulingEnvironment(SimulatorConfig(num_executors=num_executors, seed=seed))
    return env, env.reset(jobs)


class TestFeatureExtraction:
    def test_shapes_and_rows(self):
        _, observation = live_observation()
        graph = build_graph_features(observation)
        total_nodes = sum(job.num_nodes for job in observation.job_dags)
        assert graph.num_nodes == total_nodes
        assert graph.node_features.shape == (total_nodes, 5)
        assert dense_adjacency(graph).shape == (total_nodes, total_nodes)
        assert graph.job_ids.shape == (total_nodes,)
        assert graph.num_jobs == len(observation.job_dags)

    def test_schedulable_mask_matches_observation(self):
        _, observation = live_observation()
        graph = build_graph_features(observation)
        marked = {id(graph.nodes[i]) for i in np.flatnonzero(graph.schedulable_mask)}
        expected = {id(node) for node in observation.schedulable_nodes}
        assert marked == expected

    def test_adjacency_points_parent_to_child(self):
        _, observation = live_observation(num_jobs=1)
        graph = build_graph_features(observation)
        adjacency = dense_adjacency(graph)
        for node in graph.nodes:
            row = graph.row_of(node)
            for child in node.children:
                assert adjacency[row, graph.row_of(child)] == 1.0

    def test_heights_are_zero_for_leaves_and_increase_upstream(self):
        job = fork_join_job(2, tasks_per_branch=2)
        env = SchedulingEnvironment(SimulatorConfig(num_executors=2, seed=0))
        observation = env.reset([job])
        graph = build_graph_features(observation)
        sink_row = graph.row_of(job.nodes[-1])
        source_row = graph.row_of(job.nodes[0])
        assert graph.node_heights[sink_row] == 0
        assert graph.node_heights[source_row] == 2

    def test_free_executor_feature_normalised(self):
        _, observation = live_observation(num_executors=8)
        config = FeatureConfig(executor_scale=8.0)
        graph = build_graph_features(observation, config)
        assert np.allclose(graph.node_features[:, 3], observation.num_free_executors / 8.0)

    def test_interarrival_hint_feature(self):
        _, observation = live_observation()
        config = FeatureConfig(include_interarrival_hint=True, interarrival_scale=10.0)
        graph = build_graph_features(observation, config, interarrival_hint=20.0)
        assert graph.node_features.shape[1] == 6
        assert np.allclose(graph.node_features[:, 5], 2.0)

    def test_duration_feature_can_be_hidden(self):
        _, observation = live_observation()
        graph = build_graph_features(observation, FeatureConfig(include_task_duration=False))
        assert np.allclose(graph.node_features[:, 1], 0.0)


def recursive_height(node, cache=None):
    """Oracle for the vectorized height computation: 1 + max(child heights)."""
    if cache is None:
        cache = {}
    if id(node) in cache:
        return cache[id(node)]
    value = 1 + max((recursive_height(c, cache) for c in node.children), default=-1)
    cache[id(node)] = value
    return value


class TestGraphStructure:
    def test_vectorized_heights_match_recursive_definition(self):
        rng = np.random.default_rng(5)
        jobs = sample_tpch_jobs(6, rng, sizes=(2.0, 5.0))
        structure = GraphStructure(jobs)
        cache = {}
        expected = np.array([recursive_height(node, cache) for node in structure.nodes])
        assert np.array_equal(structure.node_heights, expected)

    def test_frontier_levels_cover_every_edge_exactly_once(self):
        rng = np.random.default_rng(6)
        jobs = sample_tpch_jobs(4, rng, sizes=(2.0, 5.0))
        structure = GraphStructure(jobs)
        total_edges = sum(len(level.message_rows) for level in structure.frontier_levels)
        assert total_edges == len(structure.edge_parent_rows)
        for level in structure.frontier_levels:
            # Every target row really sits at this level's height...
            assert np.all(structure.node_heights[level.target_rows] == level.height)
            # ...and every message comes from strictly below it.
            child_rows = level.child_rows[level.message_rows]
            assert np.all(structure.node_heights[child_rows] < level.height)
            # Every frontier node receives at least one message (height >= 1
            # means it has children by definition of the longest-path height).
            assert set(level.target_segments.tolist()) == set(range(level.num_targets))

    def test_dense_adjacency_has_one_entry_per_edge(self):
        _, observation = live_observation(num_jobs=2)
        graph = build_graph_features(observation)
        structure = graph.structure
        adjacency = dense_adjacency(graph)
        for parent, child in zip(structure.edge_parent_rows, structure.edge_child_rows):
            assert adjacency[parent, child] == 1.0
        assert adjacency.sum() == len(structure.edge_parent_rows)


class TestGraphNeuralNetwork:
    def make_gnn(self, **overrides):
        config = GNNConfig(**overrides)
        return GraphNeuralNetwork(config, np.random.default_rng(0)), config

    def test_embedding_shapes(self):
        _, observation = live_observation()
        graph = build_graph_features(observation)
        gnn, config = self.make_gnn()
        embeddings = gnn(graph)
        assert embeddings.node_embeddings.shape == (graph.num_nodes, config.embedding_dim)
        assert embeddings.job_embeddings.shape == (graph.num_jobs, config.embedding_dim)
        assert embeddings.global_embedding.shape == (1, config.embedding_dim)

    def test_information_flows_child_to_parent_only(self):
        job = fork_join_job(2, tasks_per_branch=2)
        env = SchedulingEnvironment(SimulatorConfig(num_executors=2, seed=0))
        observation = env.reset([job])
        graph = build_graph_features(observation)
        gnn, _ = self.make_gnn()
        base = gnn.node_embeddings(graph).data.copy()

        # Perturbing a leaf (sink) feature changes its ancestors' embeddings...
        sink_row = graph.row_of(job.nodes[-1])
        source_row = graph.row_of(job.nodes[0])
        graph.node_features[sink_row, 0] += 5.0
        perturbed = gnn.node_embeddings(graph).data
        assert not np.allclose(perturbed[source_row], base[source_row])
        graph.node_features[sink_row, 0] -= 5.0

        # ...but perturbing the root does not change the sink's embedding.
        graph.node_features[source_row, 0] += 5.0
        perturbed = gnn.node_embeddings(graph).data
        assert np.allclose(perturbed[sink_row], base[sink_row])

    def test_single_level_aggregation_flag(self):
        _, observation = live_observation(num_jobs=1)
        graph = build_graph_features(observation)
        two_level, _ = self.make_gnn(two_level_aggregation=True)
        single, _ = self.make_gnn(two_level_aggregation=False)
        assert not np.allclose(
            two_level(graph).node_embeddings.data, single(graph).node_embeddings.data
        )

    def test_gradients_flow_to_all_parameters(self):
        _, observation = live_observation(num_jobs=2)
        graph = build_graph_features(observation)
        gnn, _ = self.make_gnn()
        out = gnn(graph)
        (out.global_embedding.sum() + out.node_embeddings.sum()).backward()
        grads = [p.grad is not None for p in gnn.parameters()]
        assert all(grads)

    def test_message_passing_depth_cap(self):
        _, observation = live_observation(num_jobs=1)
        graph = build_graph_features(observation)
        shallow, _ = self.make_gnn(max_message_passing_depth=0)
        embeddings = shallow.node_embeddings(graph)
        # With no message passing the embedding is just prep(x).
        assert np.allclose(embeddings.data, shallow.prep(
            __import__("repro.autograd", fromlist=["Tensor"]).Tensor(graph.node_features)
        ).data)


class TestPolicyNetwork:
    def test_node_logit_shape(self):
        _, observation = live_observation()
        graph = build_graph_features(observation)
        gnn = GraphNeuralNetwork(GNNConfig(), np.random.default_rng(0))
        policy = PolicyNetwork(PolicyConfig(), np.random.default_rng(1))
        logits = policy.node_logits(graph, gnn(graph))
        assert logits.shape == (graph.num_nodes,)

    def test_limit_logits_scalar_encoding(self):
        _, observation = live_observation()
        graph = build_graph_features(observation)
        gnn = GraphNeuralNetwork(GNNConfig(), np.random.default_rng(0))
        policy = PolicyNetwork(PolicyConfig(), np.random.default_rng(1))
        fractions = np.linspace(0.1, 1.0, 5).reshape(-1, 1)
        logits = policy.limit_logits_rows(graph, gnn(graph), np.zeros(5, dtype=int), fractions)
        assert logits.shape == (5,)

    def test_limit_logits_validate_width(self):
        _, observation = live_observation()
        graph = build_graph_features(observation)
        gnn = GraphNeuralNetwork(GNNConfig(), np.random.default_rng(0))
        policy = PolicyNetwork(PolicyConfig(limit_input_dim=4), np.random.default_rng(1))
        with pytest.raises(ValueError):
            policy.limit_logits_rows(graph, gnn(graph), np.zeros(3, dtype=int), np.ones((3, 2)))

    def test_class_head_disabled_by_default(self):
        policy = PolicyNetwork(PolicyConfig(), np.random.default_rng(0))
        _, observation = live_observation()
        graph = build_graph_features(observation)
        gnn = GraphNeuralNetwork(GNNConfig(), np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            policy.class_logits(graph, gnn(graph), 0, observation.executor_classes)

    def test_class_head_shapes(self):
        from repro.simulator import multi_resource_classes

        policy = PolicyNetwork(
            PolicyConfig(use_executor_class_head=True), np.random.default_rng(0)
        )
        _, observation = live_observation()
        graph = build_graph_features(observation)
        gnn = GraphNeuralNetwork(GNNConfig(), np.random.default_rng(0))
        logits = policy.class_logits(graph, gnn(graph), 0, multi_resource_classes())
        assert logits.shape == (4,)
