"""Reference implementations, beside the differential pairs that use them.

Each class here is the slow, obviously correct formulation of something the
product does fast.  No product setting selects one: the pairs in
:data:`repro.verify.differential.IMPLEMENTATION_PAIRS`, the tests and the
benchmarks that price a fast path construct them by name.

* :class:`DenseGNNAgent` — dense message passing, the reference of the
  frontier-restricted propagation (pair ``sparse_vs_dense_gnn``);
* :class:`ScratchFeaturesAgent` — graph inputs built from scratch every
  decision, the reference of :class:`~repro.core.features.GraphCache`
  (``cached_vs_scratch_features``);
* :class:`ReferenceAgent` — both at once (``fast_vs_reference``);
* :func:`scored_act` / :class:`TensorForwardAgent` — one decision through
  the autograd forward REINFORCE trains on, with its own stage → limit →
  class selection, scored on the autograd graph: the reference of the
  inference data path (``inference_kernels_vs_tensor``) and of the chunked
  replay's gradients;
* :class:`ForgetfulAgent` — the data path remembering nothing, the reference
  of embedding reuse (``incremental_vs_full_gnn``);
* :class:`SerialRequestBroker` — one policy pass per request, the reference
  of cross-session batched dispatch (``batched_vs_serial_service``,
  ``sharded_vs_serial_service``).

Every oracle agent is built from the same :class:`DecimaConfig` and seed as
:class:`DecimaAgent` and holds the very same weights; only how it computes
differs.  None of them crosses a process boundary: a rollout worker or a
fleet shard rebuilds a plain :class:`DecimaAgent`, so
:func:`~repro.core.checkpoints.agent_spec` refuses an oracle agent.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor, entropy_from_log_probs, masked_log_softmax
from ..core.agent import DecimaAgent, StepInfo, sample_row
from ..core.features import (
    FeatureConfig,
    GraphCache,
    GraphFeatures,
    GraphStructure,
    _refresh_dynamic_features,
    _refresh_schedulable_mask,
)
from ..core.gnn import GraphEmbeddings, GraphNeuralNetwork
from ..service.batcher import RequestBroker
from ..simulator.environment import Action, Observation

__all__ = [
    "DenseGNNAgent",
    "DenseGraphNeuralNetwork",
    "ForgetfulAgent",
    "ReferenceAgent",
    "ScratchFeaturesAgent",
    "SerialRequestBroker",
    "TensorForwardAgent",
    "build_graph_features",
    "dense_adjacency",
    "scored_act",
]


# ------------------------------------------------------------------ features
def build_graph_features(
    observation: Observation,
    config: Optional[FeatureConfig] = None,
    interarrival_hint: Optional[float] = None,
) -> GraphFeatures:
    """The GNN inputs of ``observation``, assembled from scratch.

    Stateless: walks every job into a new :class:`GraphStructure` and fills a
    fresh feature matrix and mask.  :class:`GraphCache` must hand out exactly
    these arrays while doing this work only when the set of live jobs changes.
    """
    config = config or FeatureConfig()
    structure = GraphStructure(list(observation.job_dags))
    features = np.zeros((structure.num_nodes, config.num_features))
    mask = np.zeros(structure.num_nodes, dtype=bool)
    return GraphFeatures(
        structure=structure,
        node_features=_refresh_dynamic_features(
            structure, observation, config, interarrival_hint, features
        ),
        schedulable_mask=_refresh_schedulable_mask(structure, observation, mask),
    )


class ScratchFeaturesAgent(DecimaAgent):
    """Builds every decision's graph inputs from scratch, never from a cache."""

    def build_features(
        self,
        observation: Observation,
        graph_cache: Optional[GraphCache] = None,
        reuse_buffers: bool = False,
    ) -> GraphFeatures:
        return build_graph_features(
            observation, self.config.feature, interarrival_hint=self.interarrival_hint
        )


# --------------------------------------------------------------- propagation
def dense_adjacency(graph: GraphFeatures) -> np.ndarray:
    """The ``(N, N)`` matrix with ``A[parent, child] = 1`` for every edge."""
    structure = graph.structure
    matrix = np.zeros((graph.num_nodes, graph.num_nodes))
    matrix[structure.edge_parent_rows, structure.edge_child_rows] = 1.0
    return matrix


class DenseGraphNeuralNetwork(GraphNeuralNetwork):
    """Message passing in its original dense form: every height runs
    ``node_f`` over all rows and aggregates with an adjacency matmul, masked
    to the nodes at that height.  Same per-node sums as the frontier path,
    another floating-point summation order."""

    @classmethod
    def sharing(cls, network: GraphNeuralNetwork) -> "DenseGraphNeuralNetwork":
        """A dense network over ``network``'s own modules and parameters."""
        dense = cls.__new__(cls)
        dense.__dict__.update(network.__dict__)
        return dense

    def node_embeddings(self, graph: GraphFeatures) -> Tensor:
        embeddings = self.prep(Tensor(graph.node_features))
        if graph.num_nodes == 0:
            return embeddings
        adjacency = Tensor(dense_adjacency(graph))
        heights = graph.node_heights
        max_height = min(int(heights.max()), self.config.max_message_passing_depth)
        for height in range(1, max_height + 1):
            mask = (heights == height).astype(np.float64).reshape(-1, 1)
            if not mask.any():
                continue
            aggregated = adjacency @ self.node_f(embeddings)
            if self.config.two_level_aggregation:
                update = self.node_g(aggregated)
            else:
                update = aggregated
            embeddings = embeddings + update * Tensor(mask)
        return embeddings


class DenseGNNAgent(DecimaAgent):
    """Decides through :class:`DenseGraphNeuralNetwork`, on autograd ops (the
    dense formulation has no data path); selection runs as usual."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.gnn is not None:
            self.gnn = DenseGraphNeuralNetwork.sharing(self.gnn)

    def _forward(self, graph, clock):
        embeddings = self.gnn(graph) if self.gnn is not None else GraphEmbeddings.zero_width(graph)
        clock.mark()
        node_logits = self.policy.node_logits(graph, embeddings)
        clock.mark()
        return embeddings, node_logits


class ReferenceAgent(DenseGNNAgent, ScratchFeaturesAgent):
    """From-scratch features into the dense network: every oracle at once."""


# ------------------------------------------------------------ the decision
def _scored(logits: Tensor, row: int, mask: Optional[np.ndarray] = None) -> StepInfo:
    """Log-probability of entry ``row`` of ``softmax(logits)`` and its entropy."""
    if mask is None:
        mask = np.ones(logits.shape[0], dtype=bool)
    log_probs = masked_log_softmax(logits, mask)
    return StepInfo(log_probs[row], entropy_from_log_probs(log_probs, mask))


def scored_act(
    agent: DecimaAgent,
    observation: Observation,
    rng: Optional[np.random.Generator] = None,
    greedy: bool = False,
) -> tuple[Optional[Action], Optional[StepInfo]]:
    """One decision of ``agent`` through the autograd ops, and its score.

    Fresh feature arrays, the tensor forward (``agent.gnn(graph)``, skipped
    by an agent without one, and ``agent.policy.node_logits``), then stage → limit → class, each head
    scored on its own: :func:`sample_row` on the head's tensor data draws
    from ``rng`` (``agent``'s evaluation stream when ``None``) in that order,
    and :func:`_scored` puts the drawn row's log-probability and the
    distribution's entropy on the autograd graph.  The returned
    :class:`StepInfo` holds the three heads summed, scalar tensors connected
    to the parameters.  It shares no selection code with
    :meth:`DecimaAgent.act_batch`, which must decide the same action and
    leave ``rng`` in the same state.  ``(None, None)`` when nothing is
    schedulable.
    """
    if not observation.schedulable_nodes:
        return None, None
    rng = rng if rng is not None else agent._eval_rng
    graph = agent.build_features(observation)
    embeddings = agent.gnn(graph) if agent.gnn is not None else GraphEmbeddings.zero_width(graph)
    node_logits = agent.policy.node_logits(graph, embeddings)
    if agent.logits_tap is not None:
        agent.logits_tap(node_logits.data)
    mask = graph.schedulable_mask
    node_row = sample_row(node_logits.data, mask, rng, greedy)
    info = _scored(node_logits, node_row, mask)
    node = graph.nodes[node_row]
    job_row = int(graph.job_ids[node_row])

    limit = agent.total_executors
    if agent.config.use_parallelism_control:
        candidates = agent.candidate_limits(node.job)
        limit_logits = agent.policy.limit_logits_rows(
            graph,
            embeddings,
            np.full(len(candidates), job_row),
            agent._limit_inputs(candidates),
        )
        limit_row = sample_row(limit_logits.data, None, rng, greedy)
        info += _scored(limit_logits, limit_row)
        limit = int(candidates[limit_row])

    executor_class = None
    classes = agent._eligible_classes(observation, node)
    if classes:
        class_logits = agent.policy.class_logits(graph, embeddings, job_row, classes)
        class_row = sample_row(class_logits.data, None, rng, greedy)
        info += _scored(class_logits, class_row)
        executor_class = classes[class_row]
    return Action(node=node, parallelism_limit=limit, executor_class=executor_class), info


class TensorForwardAgent(DecimaAgent):
    """Schedules through :func:`scored_act`: the forward REINFORCE trains on
    (autograd ops, fresh arrays) is the oracle of the inference data path."""

    def schedule(self, observation):
        action, _ = scored_act(
            self, observation, self._eval_rng, self.config.greedy_evaluation
        )
        return action


class ForgetfulAgent(DecimaAgent):
    """Drops what the network's data path remembers before every decision, so
    each one is the whole forward: the definition embedding reuse answers to."""

    def schedule(self, observation):
        self.gnn.forget_embeddings()
        return super().schedule(observation)


# ----------------------------------------------------------------- serving
class SerialRequestBroker(RequestBroker):
    """Answers a round one request per policy pass, consulting the breaker
    before each, where :class:`RequestBroker` merges the round into one."""

    def _answer(self, requests, active, results) -> None:
        for index in active:
            request = requests[index]
            allows = self.breaker is None or self.breaker.allow_policy()
            if request.session.fallback is None or allows:
                results[index] = self._policy([request], record_to_breaker=allows)[0]
            else:
                results[index] = self._fallback(request)
