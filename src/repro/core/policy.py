"""Decima's policy network (§5.2, Fig. 6).

Given the embeddings produced by the graph neural network, the policy network
computes:

* a score ``q(e_v, y_i, z)`` per schedulable stage, fed through a masked
  softmax (Eq. 2) to pick the stage to run next;
* a score ``w(y_i, z, l)`` per parallelism limit ``l`` for the chosen stage's
  job — the limit is an *input* to the score function, so a single function is
  reused for all limits (this is the encoding Fig. 15a shows trains fastest);
* optionally, a score ``c(y_i, z, cpu, memory)`` per executor class for the
  multi-resource environment of §7.3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor, concat
from ..simulator.executor import ExecutorClass
from .features import GraphFeatures
from .gnn import GraphEmbeddings
from .kernels import Workspace, mlp_forward
from .nn import MLP, Module

__all__ = ["PolicyConfig", "PolicyNetwork"]


@dataclass
class PolicyConfig:
    """Sizes and switches of the policy network."""

    num_features: int = 5
    embedding_dim: int = 8
    hidden_sizes: tuple[int, ...] = (32, 16)
    # Ablation: bypass the graph embeddings and score nodes from raw features only
    # ("Decima w/o graph embedding" in Fig. 14).
    use_graph_embedding: bool = True
    # Multi-resource executor-class head (§7.3).
    use_executor_class_head: bool = False
    # Width of the parallelism-limit input: 1 = the limit value is a scalar
    # input to a single reused score function (the paper's encoding); a larger
    # value means the limit is one-hot encoded, which effectively gives every
    # limit its own parameters (the slower-training variant of Fig. 15a).
    limit_input_dim: int = 1


class PolicyNetwork(Module):
    """Score functions q(.), w(.) and (optionally) the executor-class head."""

    def __init__(self, config: PolicyConfig, rng: np.random.Generator):
        self.config = config
        dim = config.embedding_dim
        hidden = config.hidden_sizes
        node_inputs = config.num_features + 3 * dim
        limit_inputs = 2 * dim + config.limit_input_dim
        class_inputs = 2 * dim + 2
        self.node_score = MLP(node_inputs, 1, rng, hidden_sizes=hidden)
        self.limit_score = MLP(limit_inputs, 1, rng, hidden_sizes=hidden)
        self.class_score = (
            MLP(class_inputs, 1, rng, hidden_sizes=hidden)
            if config.use_executor_class_head
            else None
        )

    # ------------------------------------------------------------------ nodes
    def node_logits(self, graph: GraphFeatures, embeddings: GraphEmbeddings) -> Tensor:
        """One logit per node row: q(x_v, e_v, y_{j(v)}, z)."""
        num_nodes = graph.num_nodes
        features = Tensor(graph.node_features)
        if self.config.use_graph_embedding:
            node_emb = embeddings.node_embeddings
            job_emb = embeddings.job_embeddings[graph.job_ids]
            # Each node reads the global embedding of *its* graph — row 0 for a
            # plain observation, the owning session's row in a merged batch.
            global_emb = embeddings.global_embedding[graph.job_graph_ids[graph.job_ids]]
        else:
            zeros = Tensor(np.zeros((num_nodes, self.config.embedding_dim)))
            node_emb = job_emb = global_emb = zeros
        inputs = concat([features, node_emb, job_emb, global_emb], axis=1)
        return self.node_score(inputs).reshape(num_nodes)

    def node_logits_data(
        self,
        graph: GraphFeatures,
        node_emb: np.ndarray,
        job_emb: np.ndarray,
        global_emb: np.ndarray,
        workspace: Workspace,
        rows: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Arena-buffered :meth:`node_logits` on plain arrays (inference only).

        With ``rows`` the score MLP runs only over those node rows (the
        schedulable set — Eq. 2 masks every other row to -1e9 anyway, so
        their scores are never read); the other entries of the returned
        ``(N,)`` buffer are zero-filled, which behaves exactly like the full
        pass under the masked softmax (both underflow to an exact 0.0
        probability).  The returned buffer is workspace-owned and valid until
        the next call.
        """
        config = self.config
        features = graph.node_features
        num_features = features.shape[1]
        dim = config.embedding_dim
        logits = workspace.get("node_logits", (graph.num_nodes,))
        if rows is None:
            num_rows = graph.num_nodes
            inputs = workspace.get("score_in", (num_rows, num_features + 3 * dim))
            inputs[:, :num_features] = features
            job_rows = graph.job_ids
            row_nodes = node_emb
        else:
            num_rows = rows.size
            inputs = workspace.get("score_in", (num_rows, num_features + 3 * dim))
            inputs[:, :num_features] = features[rows]
            job_rows = graph.job_ids[rows]
            row_nodes = node_emb[rows]
            logits[:] = 0.0
        if config.use_graph_embedding:
            inputs[:, num_features: num_features + dim] = row_nodes
            inputs[:, num_features + dim: num_features + 2 * dim] = job_emb[job_rows]
            inputs[:, num_features + 2 * dim:] = global_emb[
                graph.job_graph_ids[job_rows]
            ]
        else:
            inputs[:, num_features:] = 0.0
        scores = mlp_forward(self.node_score, inputs, workspace, "node_score")
        if rows is None:
            logits[:] = scores[:, 0]
        else:
            logits[rows] = scores[:, 0]
        return logits

    # ----------------------------------------------------------------- limits
    def limit_logits_rows(
        self,
        graph: GraphFeatures,
        embeddings: GraphEmbeddings,
        job_rows: np.ndarray,
        limit_inputs: np.ndarray,
        workspace: "Workspace | None" = None,
    ) -> "Tensor | np.ndarray":
        """Score (job, limit) pairs in one pass through ``w``.

        Row ``i`` scores ``limit_inputs[i]`` for job row ``job_rows[i]``.  A
        limit input is a single column with the limit normalised by the
        cluster size (the paper's encoding), or a one-hot row when
        ``limit_input_dim > 1`` (the ablation of Fig. 15a).  The agent stacks
        every pending observation's candidate limits into a single call and
        splits the logits back per observation; row results are independent,
        so that is numerically the same as one call per job.

        With a ``workspace`` the head runs on the data path instead
        (:meth:`_job_row_logits_data`): the same numbers as a plain array,
        and no autograd tape.
        """
        limit_inputs = np.atleast_2d(np.asarray(limit_inputs, dtype=np.float64))
        job_rows = np.asarray(job_rows, dtype=np.intp)
        num_rows = len(job_rows)
        if limit_inputs.shape[0] != num_rows:
            raise ValueError(
                f"{num_rows} job rows but {limit_inputs.shape[0]} limit-input rows"
            )
        if limit_inputs.shape[1] != self.config.limit_input_dim:
            raise ValueError(
                f"limit inputs have width {limit_inputs.shape[1]}, "
                f"policy expects {self.config.limit_input_dim}"
            )
        return self._job_row_logits(
            self.limit_score, "limit_score", graph, embeddings, job_rows,
            limit_inputs, workspace,
        )

    def _job_row_logits(
        self,
        score: MLP,
        tag: str,
        graph: GraphFeatures,
        embeddings: GraphEmbeddings,
        job_rows: np.ndarray,
        extra_inputs: np.ndarray,
        workspace: "Workspace | None",
    ) -> "Tensor | np.ndarray":
        """``score(y_{job_rows[i]}, z, extra_inputs[i])`` for every row ``i``.

        Through the autograd ops, or with a ``workspace`` through
        :meth:`_job_row_logits_data` under the buffer ``tag``.
        """
        if workspace is not None:
            return self._job_row_logits_data(
                score, tag, graph, embeddings, job_rows, extra_inputs, workspace
            )
        num_rows = len(job_rows)
        if self.config.use_graph_embedding:
            job_emb = embeddings.job_embeddings[job_rows]
            global_emb = embeddings.global_embedding[graph.job_graph_ids[job_rows]]
        else:
            zeros = Tensor(np.zeros((num_rows, self.config.embedding_dim)))
            job_emb = global_emb = zeros
        inputs = concat([job_emb, global_emb, Tensor(extra_inputs)], axis=1)
        return score(inputs).reshape(num_rows)

    def _job_row_logits_data(
        self,
        score: MLP,
        tag: str,
        graph: GraphFeatures,
        embeddings: GraphEmbeddings,
        job_rows: np.ndarray,
        extra_inputs: np.ndarray,
        workspace: Workspace,
    ) -> np.ndarray:
        """Arena-buffered job-row head on plain arrays (inference only).

        The same concatenated input through :func:`mlp_forward` — the same
        gemm, bias add and leaky ReLU — so the result equals the tensor
        head's ``.data`` bit for bit.  The returned ``(rows,)`` view is
        workspace-owned and valid until the next call with this ``tag``.
        """
        dim = self.config.embedding_dim
        inputs = workspace.get(f"{tag}:in", (len(job_rows), 2 * dim + extra_inputs.shape[1]))
        if self.config.use_graph_embedding:
            inputs[:, :dim] = embeddings.job_embeddings.data[job_rows]
            inputs[:, dim: 2 * dim] = embeddings.global_embedding.data[
                graph.job_graph_ids[job_rows]
            ]
        else:
            inputs[:, : 2 * dim] = 0.0
        inputs[:, 2 * dim:] = extra_inputs
        return mlp_forward(score, inputs, workspace, tag)[:, 0]

    # ---------------------------------------------------------------- classes
    def class_logits(
        self,
        graph: GraphFeatures,
        embeddings: GraphEmbeddings,
        job_rows: "int | np.ndarray",
        executor_classes: list[ExecutorClass],
        workspace: "Workspace | None" = None,
    ) -> "Tensor | np.ndarray":
        """One logit per executor class for the multi-resource action head.

        Row ``i`` scores ``executor_classes[i]`` for job row ``job_rows[i]``,
        or for job row ``job_rows`` when it is one number — a decision's own
        classes, or several decisions' classes stacked into one pass like
        :meth:`limit_logits_rows`, whose ``workspace`` it takes too.
        """
        if self.class_score is None:
            raise RuntimeError("executor-class head is disabled in this policy")
        class_features = np.array(
            [[cls.cpu, cls.memory] for cls in executor_classes], dtype=np.float64
        )
        job_rows = np.broadcast_to(
            np.asarray(job_rows, dtype=np.intp), (len(executor_classes),)
        )
        return self._job_row_logits(
            self.class_score, "class_score", graph, embeddings, job_rows,
            class_features, workspace,
        )
