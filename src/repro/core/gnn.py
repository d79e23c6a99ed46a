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

import operator
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..autograd import Tensor, concat, gather_rows, scatter_add_rows, segment_sum
from .features import FREE_EXECUTORS_COLUMN, GraphFeatures, GraphStructure
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


# Below this many node rows ``forward_data`` remembers nothing: a forward over
# a small graph is mostly per-call overhead, which recomputing fewer rows does
# not shrink.  Measured (docs/PERFORMANCE.md, "Embedding reuse"), not tuned
# per deployment.
REUSE_MIN_NODES = 256
# A partly stale forward pays for cutting the levels down; past this share of
# the rows the whole forward is the cheaper one.
REUSE_MAX_STALE_SHARE = 0.5


class _EmbeddingState:
    """What ``forward_data`` keeps of its last pass over one structure."""

    __slots__ = ("features", "node_embeddings", "job_sums")

    def __init__(self, features_shape: tuple, num_jobs: int, dim: int):
        self.features = np.empty(features_shape)
        self.node_embeddings = np.empty((features_shape[0], dim))
        self.job_sums = np.empty((num_jobs, dim))


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

    # Equal on graphs of ``REUSE_MIN_NODES`` rows or more means the data path
    # is dropping what it remembers on every call.
    STATS = (
        ("rows_seen", "gnn_rows_seen_total", "counter",
         "Node rows handed to the GNN data path"),
        ("rows_recomputed", "gnn_rows_recomputed_total", "counter",
         "Node rows the GNN data path re-embedded (not reused)"),
    )

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
        # What the data path remembers between calls, per structure (weakly:
        # a structure nobody else holds takes its state with it), all of it
        # computed from the ``.data`` arrays in ``_weights``.
        self._states: "weakref.WeakKeyDictionary[GraphStructure, _EmbeddingState]" = (
            weakref.WeakKeyDictionary()
        )
        self._node_parameters = [
            parameter
            for mlp in (self.prep, self.node_f, self.node_g, self.job_f)
            for parameter in mlp.parameters()
        ]
        self._weights: list = [None] * len(self._node_parameters)
        # Node rows handed to forward_data, and how many of them it recomputed.
        self.rows_seen = 0
        self.rows_recomputed = 0

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

        Returns ``(node, job, global)`` embedding arrays owned by the network
        — valid until its next forward over the same
        :class:`~repro.core.features.GraphStructure` (the job and global
        arrays: until its next forward at all), never safe to hand to
        autograd.

        On a graph of at least ``REUSE_MIN_NODES`` rows the network remembers,
        per structure, the feature matrix it embedded and the node embeddings
        and per-job ``job_f`` sums that came out, and the next forward over
        that structure recomputes only the jobs that own a row whose features
        differ (:meth:`_recall`).  Jobs are disconnected components and a
        job's embeddings are a function of the structure, the weights and its
        own feature rows alone, so nothing else can make a remembered row
        wrong.  ``prep``, the frontier levels and ``job_f`` then run over the
        stale jobs' rows, with each level cut down to them
        (:meth:`FrontierLevel.restricted_to`); the ``J x D`` job transform
        and the global summary always run in full.

        With every row stale this is the whole forward, bit-identical to
        ``self(graph)``: every step is the same numpy operation the tensor
        ops perform (gemm + broadcast add, leaky-ReLU multiplier, gather,
        zero + ``np.add.at`` segment sum), merely writing into preallocated
        buffers; the differential pair ``inference_kernels_vs_tensor`` pins
        the two to each other end to end.  A partly stale forward agrees to
        rounding, not to the bit (a gemm's row results depend on how many
        rows it has), and decides the same — ``incremental_vs_full_gnn``.
        """
        config = self.config
        if not config.sparse_message_passing:
            raise ValueError("forward_data implements the sparse path only")
        workspace = self.workspace
        features = graph.node_features
        num_features = features.shape[1]
        dim = config.embedding_dim
        job_ids = graph.job_ids
        levels = graph.frontier_levels
        state, stale_rows = self._recall(graph)
        if state is None:
            embeddings = None
            job_sums = workspace.get("job_sum", (graph.num_jobs, dim))
        else:
            embeddings, job_sums = state.node_embeddings, state.job_sums
        if stale_rows is None:
            rows = None
            embeddings = mlp_forward(self.prep, features, workspace, "prep", out=embeddings)
            job_sums[:] = 0.0
        else:
            rows = np.flatnonzero(stale_rows)
            features = np.take(
                features, rows, axis=0,
                out=workspace.get("stale_in", (rows.size, num_features)),
            )
            job_ids = job_ids[rows]
            levels = (level.restricted_to(stale_rows) for level in levels)
            embeddings[rows] = mlp_forward(self.prep, features, workspace, "prep")
            job_sums[job_ids] = 0.0
        self.rows_recomputed += len(features)
        for index, level in enumerate(levels):
            # A job with no node at this height has none above it either.
            if level.height > config.max_message_passing_depth or not level.num_targets:
                break
            children = workspace.get(
                f"lvl{index}:child", (len(level.child_rows), dim)
            )
            np.take(embeddings, level.child_rows, axis=0, out=children)
            messages = mlp_forward(self.node_f, children, workspace, f"lvl{index}:f")
            aggregated = workspace.get(f"lvl{index}:agg", (level.num_targets, dim))
            scratch = workspace.get(
                f"lvl{index}:edges", (len(level.message_rows), dim)
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
        job_inputs = workspace.get("job_in", (len(features), num_features + dim))
        job_inputs[:, :num_features] = features
        job_inputs[:, num_features:] = embeddings if rows is None else embeddings[rows]
        transformed = mlp_forward(self.job_f, job_inputs, workspace, "job_f")
        np.add.at(job_sums, job_ids, transformed)
        if state is not None:
            # Filed only now: a forward that raised half way leaves nothing.
            if rows is None:
                state.features[...] = features
            else:
                state.features[rows] = features
            self._states[graph.structure] = state
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

    def _recall(
        self, graph: GraphFeatures
    ) -> "tuple[Optional[_EmbeddingState], Optional[np.ndarray]]":
        """What :meth:`forward_data` may keep of its last pass over this structure.

        Returns ``(state, stale_rows)``.  ``state`` is ``None`` for a graph
        under ``REUSE_MIN_NODES`` rows: nothing is kept and the forward runs
        in the arena.  ``stale_rows`` is the boolean mask of the node rows to
        recompute — every row of every job whose features changed since the
        remembered pass — or ``None`` for all of them: no remembered pass,
        another feature width, weights that are not the arrays the state was
        computed from (``load_state_dict`` and ``Adam.step`` rebind
        ``.data``; writing *into* a live network's ``.data`` is unsupported),
        a moved free-executor count (row 0 speaks for the column), or more
        than ``REUSE_MAX_STALE_SHARE`` of the rows.  The state is taken out
        of the network here and filed again by the forward that completes.
        """
        features = graph.node_features
        num_nodes = features.shape[0]
        self.rows_seen += num_nodes
        if num_nodes < REUSE_MIN_NODES:
            return None, None
        weights = [parameter.data for parameter in self._node_parameters]
        if not all(map(operator.is_, weights, self._weights)):
            self._states.clear()
            self._weights = weights
        state = self._states.pop(graph.structure, None)
        if state is None or state.features.shape != features.shape:
            return _EmbeddingState(features.shape, graph.num_jobs, self.config.embedding_dim), None
        remembered = state.features
        if features[0, FREE_EXECUTORS_COLUMN] != remembered[0, FREE_EXECUTORS_COLUMN]:
            return state, None
        job_ids = graph.job_ids
        stale_jobs = np.zeros(graph.num_jobs, dtype=bool)
        # Changed entries, flat; far cheaper than a row-wise ``any`` over (N, F).
        changed = np.flatnonzero(features != remembered)
        stale_jobs[job_ids[changed // features.shape[1]]] = True
        stale_rows = stale_jobs[job_ids]
        if np.count_nonzero(stale_rows) > REUSE_MAX_STALE_SHARE * num_nodes:
            return state, None
        return state, stale_rows

    def forget_embeddings(self) -> None:
        """Drop everything :meth:`forward_data` remembers; the next forward over
        any structure recomputes every row."""
        self._states.clear()
