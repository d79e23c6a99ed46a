"""Decima's graph neural network (§5.1).

The network embeds every stage of every job into a vector using the
aggregation of Eq. (1):

    e_v = g( sum_{u in children(v)} f(e_u) ) + prep(x_v)

and then summarises nodes into per-job embeddings ``y_i`` and a global
embedding ``z`` (Fig. 5b), using a *separate* pair of non-linear transforms
``(f, g)`` at every level — six transforms in total.  The two-level
non-linearity is what lets the network express max-like quantities such as the
critical path (Appendix E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..autograd import Tensor, concat, gather_rows, scatter_add_rows, segment_sum
from .features import GraphFeatures
from .kernels import Workspace, gather_segment_sum, mlp_forward
from .nn import MLP, Module

__all__ = ["GNNConfig", "GraphEmbeddings", "GraphNeuralNetwork"]


@dataclass
class GNNConfig:
    """Sizes of the embedding network (paper defaults: 32/16 hidden units, dim-8 embeddings)."""

    num_features: int = 5
    embedding_dim: int = 8
    hidden_sizes: tuple[int, ...] = (32, 16)
    max_message_passing_depth: int = 8
    # Ablation switch (Appendix E / Fig. 19): drop the outer non-linearity g so
    # the aggregation is a plain sum of transformed child embeddings.
    two_level_aggregation: bool = True
    # Sparse frontier-restricted message passing (the default): at each height
    # only the frontier's children run through ``node_f`` and the aggregation
    # is a gather + segment-sum over edge index arrays.  ``False`` selects the
    # original dense formulation (full-width MLP passes and an O(N²) adjacency
    # matmul per height), kept as the numerical-equivalence oracle.
    sparse_message_passing: bool = True


@dataclass
class GraphEmbeddings:
    """Outputs of the graph neural network for one observation.

    ``global_embedding`` has one row per *graph* in the input: a single row
    for an ordinary observation, and one row per component graph (session)
    when the input is a cross-session :class:`~repro.core.features.GraphBatch`
    mega-graph — each session's jobs summarise into their own ``z``, exactly
    as if the sessions had been embedded separately.
    """

    node_embeddings: Tensor   # (N, D)
    job_embeddings: Tensor    # (J, D)
    global_embedding: Tensor  # (G, D); G = 1 for a single observation


class GraphNeuralNetwork(Module):
    """Per-node, per-job and global embeddings via message passing."""

    def __init__(self, config: GNNConfig, rng: np.random.Generator):
        self.config = config
        dim = config.embedding_dim
        hidden = config.hidden_sizes
        # Node-level transforms: prep projects raw features, f/g implement Eq. (1).
        self.prep = MLP(config.num_features, dim, rng, hidden_sizes=hidden)
        self.node_f = MLP(dim, dim, rng, hidden_sizes=hidden)
        self.node_g = MLP(dim, dim, rng, hidden_sizes=hidden)
        # Job-level summary transforms (inputs: raw features + node embedding).
        self.job_f = MLP(config.num_features + dim, dim, rng, hidden_sizes=hidden)
        self.job_g = MLP(dim, dim, rng, hidden_sizes=hidden)
        # Global summary transforms (inputs: job embeddings).
        self.global_f = MLP(dim, dim, rng, hidden_sizes=hidden)
        self.global_g = MLP(dim, dim, rng, hidden_sizes=hidden)
        # Inference-only arena of the data path (:meth:`forward_data`).
        self.workspace = Workspace()

    # ------------------------------------------------------------------ nodes
    def node_embeddings(self, graph: GraphFeatures) -> Tensor:
        """Bottom-up message passing over all DAGs at once (Eq. 1 / Fig. 5a)."""
        features = Tensor(graph.node_features)
        embeddings = self.prep(features)
        if graph.num_nodes == 0:
            return embeddings
        if self.config.sparse_message_passing:
            return self._sparse_node_embeddings(graph, embeddings)
        return self._dense_node_embeddings(graph, embeddings)

    def _sparse_node_embeddings(self, graph: GraphFeatures, embeddings: Tensor) -> Tensor:
        """Frontier-restricted propagation over the cached edge index arrays.

        At height ``h`` only the unique children feeding the frontier run
        through ``node_f``; per-edge messages are gathered from those rows and
        segment-summed into the frontier, whose updates are scattered back
        into the embedding matrix.  Numerically equivalent to the dense path
        (same per-node sums, different floating-point summation order).
        """
        for level in graph.frontier_levels:
            if level.height > self.config.max_message_passing_depth:
                break
            child_embeddings = gather_rows(embeddings, level.child_rows)
            messages = self.node_f(child_embeddings)
            edge_messages = gather_rows(messages, level.message_rows)
            aggregated = segment_sum(
                edge_messages, level.target_segments, level.num_targets
            )
            if self.config.two_level_aggregation:
                update = self.node_g(aggregated)
            else:
                update = aggregated
            embeddings = scatter_add_rows(embeddings, level.target_rows, update)
        return embeddings

    def _dense_node_embeddings(self, graph: GraphFeatures, embeddings: Tensor) -> Tensor:
        """Original dense formulation: full-width MLPs and adjacency matmuls."""
        adjacency = Tensor(graph.adjacency)
        max_height = int(graph.node_heights.max()) if graph.num_nodes else 0
        max_height = min(max_height, self.config.max_message_passing_depth)
        for height in range(1, max_height + 1):
            mask = (graph.node_heights == height).astype(np.float64).reshape(-1, 1)
            if not mask.any():
                continue
            messages = self.node_f(embeddings)
            aggregated = adjacency @ messages
            if self.config.two_level_aggregation:
                update = self.node_g(aggregated)
            else:
                update = aggregated
            embeddings = embeddings + update * Tensor(mask)
        return embeddings

    # -------------------------------------------------------------- summaries
    def job_embeddings(self, graph: GraphFeatures, node_embeddings: Tensor) -> Tensor:
        """Per-job summary y_i: aggregate a job's node embeddings (and raw features)."""
        inputs = concat([Tensor(graph.node_features), node_embeddings], axis=1)
        transformed = self.job_f(inputs)
        summed = segment_sum(transformed, graph.job_ids, graph.num_jobs)
        if self.config.two_level_aggregation:
            return self.job_g(summed)
        return summed

    def global_embedding(
        self, job_embeddings: Tensor, graph: Optional[GraphFeatures] = None
    ) -> Tensor:
        """Global summary z: aggregate per-job embeddings, one row per graph.

        For a plain observation every job belongs to graph 0 and the result is
        the familiar ``(1, D)`` summary.  For a merged cross-session batch the
        jobs segment by ``graph.job_graph_ids`` — each session's jobs sum into
        that session's own row, in the same job order as a per-session forward
        pass, so batching changes nothing about the values.
        """
        transformed = self.global_f(job_embeddings)
        num_jobs = job_embeddings.shape[0]
        if graph is None or graph.num_graphs == 1:
            segments = np.zeros(num_jobs, dtype=np.intp)
            num_graphs = 1
        else:
            segments = graph.job_graph_ids
            num_graphs = graph.num_graphs
        summed = segment_sum(transformed, segments, num_graphs)
        if self.config.two_level_aggregation:
            return self.global_g(summed)
        return summed

    def __call__(self, graph: GraphFeatures) -> GraphEmbeddings:
        nodes = self.node_embeddings(graph)
        jobs = self.job_embeddings(graph, nodes)
        cluster = self.global_embedding(jobs, graph)
        return GraphEmbeddings(node_embeddings=nodes, job_embeddings=jobs, global_embedding=cluster)

    # ------------------------------------------------------ inference data path
    def forward_data(
        self, graph: GraphFeatures
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arena-buffered forward pass on plain arrays (sparse path only).

        Returns ``(node, job, global)`` embedding arrays owned by the
        network's workspace — valid until the next forward, never safe to
        hand to autograd.  Bit-identical to ``self(graph)``: every step is
        the same numpy operation the tensor ops perform (gemm + broadcast
        add, leaky-ReLU multiplier, gather, zero + ``np.add.at`` segment
        sum), merely writing into preallocated buffers; the differential
        pair ``inference_kernels_vs_tensor`` pins the two paths to each
        other end to end.
        """
        config = self.config
        if not config.sparse_message_passing:
            raise ValueError("forward_data implements the sparse path only")
        workspace = self.workspace
        features = graph.node_features
        embeddings = mlp_forward(self.prep, features, workspace, "prep")
        for index, level in enumerate(graph.frontier_levels):
            if level.height > config.max_message_passing_depth:
                break
            children = workspace.get(
                f"lvl{index}:child", (len(level.child_rows), config.embedding_dim)
            )
            np.take(embeddings, level.child_rows, axis=0, out=children)
            messages = mlp_forward(self.node_f, children, workspace, f"lvl{index}:f")
            aggregated = workspace.get(
                f"lvl{index}:agg", (level.num_targets, config.embedding_dim)
            )
            scratch = workspace.get(
                f"lvl{index}:edges", (len(level.message_rows), config.embedding_dim)
            )
            gather_segment_sum(
                messages, level.message_rows, level.target_segments, aggregated, scratch
            )
            if config.two_level_aggregation:
                update = mlp_forward(self.node_g, aggregated, workspace, f"lvl{index}:g")
            else:
                update = aggregated
            # Frontier rows are unique, so in-place accumulation matches the
            # tensor path's copy-then-add.at scatter exactly.
            np.add.at(embeddings, level.target_rows, update)
        num_nodes, num_features = features.shape
        dim = config.embedding_dim
        job_inputs = workspace.get("job_in", (num_nodes, num_features + dim))
        job_inputs[:, :num_features] = features
        job_inputs[:, num_features:] = embeddings
        transformed = mlp_forward(self.job_f, job_inputs, workspace, "job_f")
        job_sums = workspace.get("job_sum", (graph.num_jobs, dim))
        job_sums[:] = 0.0
        np.add.at(job_sums, graph.job_ids, transformed)
        if config.two_level_aggregation:
            job_embeddings = mlp_forward(self.job_g, job_sums, workspace, "job_g")
        else:
            job_embeddings = job_sums
        transformed = mlp_forward(self.global_f, job_embeddings, workspace, "global_f")
        global_sums = workspace.get("global_sum", (graph.num_graphs, dim))
        global_sums[:] = 0.0
        # np.add.at even for the single-graph case: its sequential row-order
        # accumulation is what segment_sum does on the tensor path (a pairwise
        # .sum(axis=0) would round differently).
        np.add.at(global_sums, graph.job_graph_ids, transformed)
        if config.two_level_aggregation:
            global_embedding = mlp_forward(self.global_g, global_sums, workspace, "global_g")
        else:
            global_embedding = global_sums
        return embeddings, job_embeddings, global_embedding
