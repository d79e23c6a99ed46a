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
from typing import NamedTuple, Optional

import numpy as np

from ..autograd import Tensor, concat, gather_rows, scatter_add_rows, segment_sum
from .features import FREE_EXECUTORS_COLUMN, GraphFeatures, GraphStructure, Predecessor
from .kernels import Workspace, gather_segment_sum, mlp_forward, ordered_segment_sum
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


# Below this many node rows ``forward_data`` remembers nothing: a forward over
# a small graph is mostly per-call overhead, which recomputing fewer rows does
# not shrink.  Measured (docs/PERFORMANCE.md, "Embedding reuse"), not tuned
# per deployment.
REUSE_MIN_NODES = 256
# A partly stale forward pays for cutting the levels down; past this share of
# the rows the whole forward is the cheaper one.
REUSE_MAX_STALE_SHARE = 0.5


class _EmbeddingState(NamedTuple):
    """What ``forward_data`` keeps of its last pass over one structure."""

    features: np.ndarray
    node_embeddings: np.ndarray
    job_sums: np.ndarray


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

    @classmethod
    def zero_width(cls, graph: GraphFeatures, num_nodes: Optional[int] = None):
        """Width-0 embeddings of ``graph`` (``num_nodes`` node rows, default all):
        what the heads of an agent without a GNN read (Fig. 14's ablation)."""
        nodes = graph.num_nodes if num_nodes is None else num_nodes
        counts = (nodes, graph.num_jobs, graph.num_graphs)
        return cls(*(Tensor(np.empty((count, 0))) for count in counts))


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
        if not config.two_level_aggregation:
            # One-level aggregation reads no g.  The three are drawn above all
            # the same, so every kept weight (and the rng a caller goes on
            # drawing from) is what two-level aggregation gets.
            self.node_g = self.job_g = self.global_g = None
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
            if mlp is not None
            for parameter in mlp.parameters()
        ]
        self._weights: list = [None] * len(self._node_parameters)
        # Node rows handed to forward_data, and how many of them it recomputed.
        self.rows_seen = 0
        self.rows_recomputed = 0

    # ------------------------------------------------------------------ nodes
    def node_embeddings(self, graph: GraphFeatures) -> Tensor:
        """Bottom-up message passing over all DAGs at once (Eq. 1 / Fig. 5a).

        Frontier-restricted: at height ``h`` only the unique children feeding
        the frontier run through ``node_f``; per-edge messages are gathered
        from those rows and segment-summed into the frontier, whose updates
        are scattered back into the embedding matrix.  The dense formulation
        (full-width passes, an O(N²) adjacency matmul per height) is the
        oracle :class:`repro.verify.oracles.DenseGraphNeuralNetwork`: same
        per-node sums, another floating-point summation order.
        """
        embeddings = self.prep(Tensor(graph.node_features))
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
        """Arena-buffered forward pass on plain arrays.

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
        wrong.  That also holds across a departure: a structure the graph
        cache derived by dropping jobs starts from its predecessor's state,
        cut down to the surviving rows and jobs, so its first forward
        re-embeds what changed rather than everything.  ``prep``, the
        frontier levels and ``job_f`` then run over the stale jobs' rows,
        with each level cut down to them
        (:meth:`FrontierLevel.restricted_to`); the ``J x D`` job transform
        and the global summary always run in full.

        With every row stale this is the whole forward, bit-identical to
        ``self(graph)``: every step computes what the tensor ops compute
        (gemm + broadcast add, leaky-ReLU multiplier, gather, segment sums
        whose terms add in order onto zero), merely writing into
        preallocated buffers.  On a graph that keeps a state, the segment
        sums run on plans cached with the structure
        (:func:`~repro.core.kernels.ordered_segment_sum`), which make the
        additions ``np.add.at`` makes, in its order, without its per-element
        cost.  The differential pair ``inference_kernels_vs_tensor`` pins
        the two paths to each other end to end on its tasks' small graphs;
        ``TestWholeForwardIsTheTensorForward`` holds the planned sums to the
        tensor forward bit for bit.  A partly stale forward agrees to
        rounding, not to the bit (a gemm's row results depend on how many
        rows it has), and decides the same — ``incremental_vs_full_gnn``.
        """
        config = self.config
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
        # A whole forward over a graph large enough to keep a state sums on
        # the plans cached with the structure and scatters with a fancy-
        # indexed add.  Small graphs and partly stale forwards handle few
        # rows, where np.add.at costs less than the per-call overhead of
        # either.
        planned = state is not None and rows is None
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
            if planned:
                ordered_segment_sum(
                    messages, level.sum_plan, aggregated, scratch,
                    workspace.get(f"lvl{index}:ranked", aggregated.shape),
                )
            else:
                gather_segment_sum(
                    messages, level.message_rows, level.target_segments, aggregated, scratch
                )
            if config.two_level_aggregation:
                update = mlp_forward(self.node_g, aggregated, workspace, f"lvl{index}:g")
            else:
                update = aggregated
            # Frontier rows are unique, so a fancy-indexed add matches the
            # tensor path's copy-then-add.at scatter exactly.
            if planned:
                embeddings[level.target_rows] += update
            else:
                np.add.at(embeddings, level.target_rows, update)
        job_inputs = workspace.get("job_in", (len(features), num_features + dim))
        job_inputs[:, :num_features] = features
        job_inputs[:, num_features:] = embeddings if rows is None else embeddings[rows]
        transformed = mlp_forward(self.job_f, job_inputs, workspace, "job_f")
        if planned:
            ordered_segment_sum(
                transformed, graph.structure.job_sum_plan, job_sums,
                workspace.get("job_terms", transformed.shape),
                workspace.get("job_ranked", job_sums.shape),
            )
        else:
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
        if state is not None and graph.num_graphs == 1:
            # segment_sum's sequential row-order accumulation, as a running
            # sum (a pairwise .sum(axis=0) would round differently); + 0.0
            # turns the -0.0 that a sum of -0.0 rows ends on into the +0.0
            # of a sum that starts at zero.
            running = np.cumsum(
                transformed, axis=0, out=workspace.get("global_running", transformed.shape)
            )
            global_sums[0] = running[-1] + 0.0 if len(running) else 0.0
        else:
            global_sums[:] = 0.0
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

        Without a state of its own, a structure that an edit derived from a
        predecessor (:class:`~repro.core.features.Predecessor`) starts from
        the predecessor's: the surviving rows of its features and node
        embeddings and the surviving jobs' sums.  The link is consumed here,
        found or not, which lets the predecessor go.

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
        structure = graph.structure
        link, structure.predecessor = structure.predecessor, None
        features = graph.node_features
        num_nodes = features.shape[0]
        self.rows_seen += num_nodes
        if num_nodes < REUSE_MIN_NODES:
            return None, None
        weights = [parameter.data for parameter in self._node_parameters]
        if not all(map(operator.is_, weights, self._weights)):
            self._states.clear()
            self._weights = weights
        state = self._states.pop(structure, None)
        if state is None and link is not None:
            state = self._carried(link)
        if state is None or state.features.shape != features.shape:
            dim = self.config.embedding_dim
            return _EmbeddingState(
                np.empty(features.shape), np.empty((num_nodes, dim)), np.empty((graph.num_jobs, dim))
            ), None
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

    def _carried(self, link: Predecessor) -> Optional[_EmbeddingState]:
        """The predecessor's state cut down to what the edit kept; taken out
        of the network, as nothing forwards the predecessor again."""
        state = self._states.pop(link.structure, None)
        if state is None:
            return None
        return _EmbeddingState(
            state.features[link.keep_nodes],
            state.node_embeddings[link.keep_nodes],
            state.job_sums[link.keep_jobs],
        )

    def forget_embeddings(self) -> None:
        """Drop everything :meth:`forward_data` remembers; the next forward over
        any structure recomputes every row."""
        self._states.clear()
