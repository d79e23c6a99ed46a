"""Supervised critical-path study (Appendix E / Fig. 19).

The paper sanity-checks the expressiveness of its two-level aggregation by
training the graph neural network, with supervision, to output each node's
critical-path value on random DAGs, and then measuring how often the node with
the maximum critical path is identified on unseen DAGs.  A single-level
aggregation (the standard GNN form ``e_v = sum_u f(e_u)``) cannot express the
required max operation and plateaus at low accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..autograd import Tensor
from ..simulator.jobdag import JobDAG, critical_path_value
from ..workloads.generator import random_job
from .features import FeatureConfig, GraphFeatures, GraphStructure
from .gnn import GNNConfig, GraphNeuralNetwork
from .nn import MLP, Adam, Module

__all__ = ["CriticalPathDataset", "CriticalPathRegressor", "train_critical_path_regressor"]


def graph_features_from_job(job: JobDAG, config: Optional[FeatureConfig] = None) -> GraphFeatures:
    """Build GNN inputs directly from a job DAG (no cluster state needed)."""
    config = config or FeatureConfig()
    structure = GraphStructure([job])
    features = np.zeros((structure.num_nodes, config.num_features))
    features[:, 0] = structure.num_tasks / config.task_scale
    features[:, 1] = structure.scaled_task_durations
    return GraphFeatures(
        structure=structure,
        node_features=features,
        schedulable_mask=np.ones(structure.num_nodes, dtype=bool),
    )


@dataclass
class CriticalPathDataset:
    """Random DAGs labelled with per-node critical-path values."""

    graphs: list[GraphFeatures] = field(default_factory=list)
    targets: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        num_graphs: int,
        rng: np.random.Generator,
        min_nodes: int = 5,
        max_nodes: int = 15,
        work_scale: float = 200.0,
    ) -> "CriticalPathDataset":
        dataset = cls()
        for _ in range(num_graphs):
            job = random_job(int(rng.integers(min_nodes, max_nodes + 1)), rng)
            graph = graph_features_from_job(job)
            cache: dict = {}
            values = np.array(
                [critical_path_value(node, cache) for node in graph.nodes]
            ) / work_scale
            dataset.graphs.append(graph)
            dataset.targets.append(values)
        return dataset

    def __len__(self) -> int:
        return len(self.graphs)


class CriticalPathRegressor(Module):
    """GNN plus a linear read-out head predicting per-node critical-path values."""

    def __init__(self, two_level_aggregation: bool, seed: int = 0, embedding_dim: int = 8):
        rng = np.random.default_rng(seed)
        self.gnn = GraphNeuralNetwork(
            GNNConfig(
                num_features=FeatureConfig().num_features,
                embedding_dim=embedding_dim,
                two_level_aggregation=two_level_aggregation,
                max_message_passing_depth=20,
            ),
            rng,
        )
        self.readout = MLP(embedding_dim, 1, rng, hidden_sizes=(16,))

    def predict(self, graph: GraphFeatures) -> Tensor:
        embeddings = self.gnn.node_embeddings(graph)
        return self.readout(embeddings).reshape(graph.num_nodes)


@dataclass
class SupervisedResult:
    """Accuracy trace of the critical-path identification task."""

    accuracy_per_eval: list[float] = field(default_factory=list)
    final_accuracy: float = 0.0
    losses: list[float] = field(default_factory=list)


def _argmax_accuracy(model: CriticalPathRegressor, dataset: CriticalPathDataset) -> float:
    correct = 0
    for graph, target in zip(dataset.graphs, dataset.targets):
        predicted = model.predict(graph).data
        if int(np.argmax(predicted)) == int(np.argmax(target)):
            correct += 1
    return correct / max(len(dataset), 1)


def train_critical_path_regressor(
    model: CriticalPathRegressor,
    train_set: CriticalPathDataset,
    test_set: CriticalPathDataset,
    num_iterations: int = 100,
    learning_rate: float = 1e-3,
    eval_every: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> SupervisedResult:
    """Mean-squared-error training; returns the test accuracy trace (Fig. 19)."""
    rng = rng or np.random.default_rng(0)
    optimizer = Adam(model.parameters(), learning_rate=learning_rate)
    result = SupervisedResult()
    for iteration in range(num_iterations):
        index = int(rng.integers(0, len(train_set)))
        graph = train_set.graphs[index]
        target = Tensor(train_set.targets[index])
        model.zero_grad()
        predicted = model.predict(graph)
        error = predicted - target
        loss = (error * error).mean()
        loss.backward()
        optimizer.step()
        result.losses.append(loss.item())
        if (iteration + 1) % eval_every == 0 or iteration == num_iterations - 1:
            result.accuracy_per_eval.append(_argmax_accuracy(model, test_set))
    result.final_accuracy = result.accuracy_per_eval[-1] if result.accuracy_per_eval else 0.0
    return result
