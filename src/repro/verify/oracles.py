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
* :class:`TensorForwardAgent` — every decision through the training forward,
  the reference of the inference data path (``inference_kernels_vs_tensor``);
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

from ..autograd import Tensor
from ..core.agent import DecimaAgent
from ..core.features import (
    FeatureConfig,
    GraphCache,
    GraphFeatures,
    GraphStructure,
    _refresh_dynamic_features,
    _refresh_schedulable_mask,
)
from ..core.gnn import GraphNeuralNetwork
from ..service.batcher import RequestBroker
from ..simulator.environment import Observation

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
    dense formulation has no data path); the heads run as usual."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gnn = DenseGraphNeuralNetwork.sharing(self.gnn)

    def _forward(self, graph, training, clock):
        return super()._forward(graph, True, clock)


class ReferenceAgent(DenseGNNAgent, ScratchFeaturesAgent):
    """From-scratch features into the dense network: every oracle at once."""


# ------------------------------------------------------------ the decision
class TensorForwardAgent(DecimaAgent):
    """Schedules through ``act(training=True)``: the forward REINFORCE trains
    on (autograd ops, fresh arrays) is the oracle of the inference data path."""

    def schedule(self, observation):
        action, _ = self.act(
            observation,
            rng=self._eval_rng,
            greedy=self.config.greedy_evaluation,
            training=True,
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
