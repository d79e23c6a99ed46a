"""The Decima scheduling agent: graph neural network + policy network.

The agent implements the :class:`~repro.schedulers.base.Scheduler` interface so
it can be evaluated in the simulator exactly like the baseline heuristics, and
exposes :meth:`DecimaAgent.act`, which can additionally hand back what
REINFORCE needs of a decision: an :class:`ActionRecord` (plain arrays),
scored later by :meth:`DecimaAgent.score_actions`, the one autograd scorer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..autograd import (
    Tensor,
    gather_rows,
    scatter_add_rows,
    segment_log_softmax,
    segment_sum,
)
from ..autograd.functional import _NEG_INF
from ..schedulers.base import Scheduler
from ..simulator.environment import Action, Observation
from ..simulator.executor import ExecutorClass
from ..simulator.jobdag import JobDAG, Node
from .features import (
    FeatureConfig,
    GraphBatch,
    GraphCache,
    GraphFeatures,
    MergedStructureCache,
    _drop_jobs,
)
from .gnn import GNNConfig, GraphEmbeddings, GraphNeuralNetwork
from .kernels import Workspace
from .nn import Module
from .policy import PolicyConfig, PolicyNetwork

__all__ = ["DecimaConfig", "StepInfo", "ActionRecord", "StageTimings", "DecimaAgent"]


@dataclass
class DecimaConfig:
    """Hyper-parameters and ablation switches of the Decima agent."""

    feature: FeatureConfig = field(default_factory=FeatureConfig)
    embedding_dim: int = 8
    hidden_sizes: tuple[int, ...] = (32, 16)
    max_message_passing_depth: int = 8
    # Ablation switches (Fig. 14 / Fig. 15a / Fig. 19).
    use_graph_embedding: bool = True
    use_parallelism_control: bool = True
    two_level_aggregation: bool = True
    # Multi-resource executor-class head (§7.3).
    multi_resource: bool = False
    # Number of discrete parallelism-limit levels; ``None`` uses one level per
    # executor (the paper's encoding) capped at 64 levels for very large clusters.
    num_limit_levels: Optional[int] = None
    # When True (paper default), the limit value is a scalar input to a single
    # reused score function w(y, z, l).  When False, the limit is one-hot
    # encoded, which is equivalent to separate score functions per limit — the
    # variant Fig. 15a shows trains much more slowly.
    limit_value_input: bool = True
    seed: int = 0
    # Evaluation behaviour: greedy arg-max actions (deterministic) or sampled.
    greedy_evaluation: bool = True


@dataclass
class StepInfo:
    """Log-probabilities and entropies of scored decisions, on the autograd
    graph: ``(K,)`` tensors of ``K`` actions (:meth:`DecimaAgent.score_actions`)
    or scalars of one; heads are summed with ``+``."""

    log_prob: Tensor
    entropy: Tensor

    def __add__(self, other: "StepInfo") -> "StepInfo":
        return StepInfo(self.log_prob + other.log_prob, self.entropy + other.entropy)


def sample_row(
    logits: np.ndarray,
    mask: Optional[np.ndarray],
    rng: Optional[np.random.Generator],
    greedy: bool,
) -> int:
    """Draw (or, ``greedy``, arg-max) an entry of the masked softmax of ``logits``.

    ``mask`` marks the valid entries (``None``: all of them).  The
    log-softmax is :func:`~repro.autograd.masked_log_softmax`'s, operation for
    operation, so the probabilities are bit-identical to the tensor path's.
    The draw is numpy's own algorithm for ``rng.choice(n, p=probs)`` —
    normalised cumulative sum, one ``rng.random()``, a right-sided
    ``searchsorted`` — so it returns the index ``choice`` would and leaves
    the generator in the same state, without ``choice``'s per-call checks.
    Probabilities that are not finite raise the ``ValueError`` ``choice``
    raises.
    """
    if mask is None:
        shifted = logits - logits.max()
    else:
        shifted = logits + np.where(mask, 0.0, _NEG_INF)
        shifted -= shifted.max()
    log_probs = shifted - np.log(np.exp(shifted).sum())
    if mask is not None:
        log_probs = np.where(mask, log_probs, -np.inf)
    if greedy:
        return int(np.argmax(log_probs))
    probs = np.exp(log_probs - log_probs.max())
    total = probs.sum()
    if not math.isfinite(total):
        raise ValueError("Probabilities contain NaN")
    probs /= total
    cdf = np.cumsum(probs, out=probs)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), "right"))


def _segments_scored(
    logits: Tensor, lengths: Sequence[int], rows: Sequence[int]
) -> StepInfo:
    """Log-probability of the chosen entry of every consecutive segment of
    ``logits`` under its own softmax, and that softmax's entropy.

    Segment ``k`` is the next ``lengths[k]`` entries and ``rows[k]`` its
    chosen entry; the result holds ``(K,)`` tensors — one segment
    log-softmax, one gather and one segment sum whatever ``K`` is.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    log_probs = segment_log_softmax(logits, lengths)
    contrib = log_probs.exp() * log_probs
    count = len(lengths)
    chosen = np.cumsum(lengths) - lengths + np.asarray(rows, dtype=np.intp)
    return StepInfo(
        log_probs[chosen],
        -segment_sum(contrib, np.repeat(np.arange(count), lengths), count),
    )


def _distinct_job_states(graph: GraphFeatures) -> tuple[GraphFeatures, np.ndarray]:
    """The sub-graph of ``graph``'s distinct job states, and each job's state.

    A job's node and job embeddings are a function of its own structure and
    feature rows alone (jobs are disconnected components), and consecutive
    decisions of an episode mostly repeat them.  A state is keyed by the
    job's identity and the bytes of its feature rows; the first job of each
    key is kept (:func:`~repro.core.features._drop_jobs`), and
    ``state_of_job[j]`` is the position of job ``j``'s state among the kept
    jobs.
    """
    structure = graph.structure
    offsets = structure.job_node_offsets
    features = graph.node_features
    states: dict = {}
    state_of_job = np.empty(structure.num_jobs, dtype=np.intp)
    keep_jobs = np.zeros(structure.num_jobs, dtype=bool)
    for position, job in enumerate(structure.jobs):
        key = (id(job), features[offsets[position]: offsets[position + 1]].tobytes())
        state = states.get(key)
        if state is None:
            state = states[key] = len(states)
            keep_jobs[position] = True
        state_of_job[position] = state
    kept, keep_nodes = _drop_jobs(structure, keep_jobs)
    return (
        GraphFeatures(kept, features[keep_nodes], graph.schedulable_mask[keep_nodes]),
        state_of_job,
    )


def _row_of(choice, candidates: Sequence, what: str, owner: str) -> int:
    try:
        return list(candidates).index(choice)
    except ValueError:
        raise ValueError(
            f"{what} {choice!r} is not a candidate for {owner} "
            f"(candidates: {list(candidates)})"
        ) from None


@dataclass
class ActionRecord:
    """What training keeps of one decision until its advantage is known.

    Plain data, no autograd graph: ``graph`` shares the (static)
    :class:`~repro.core.features.GraphStructure` but owns its feature matrix
    and schedulable mask, and the choices are row numbers.  The candidate
    limits and the eligible executor classes depend on simulator state at
    decision time (running executors, free executors per class), so they are
    recorded rather than recomputed when :meth:`DecimaAgent.score_actions`
    scores the record under the current parameters.
    """

    graph: GraphFeatures
    node_row: int
    # Candidate parallelism limits and the row chosen; ``None`` when the agent
    # runs without parallelism control.
    limits: Optional[np.ndarray] = None
    limit_row: int = 0
    # Eligible executor classes and the row chosen; empty unless the
    # multi-resource head fired.
    classes: Sequence[ExecutorClass] = ()
    class_row: int = 0


class StageTimings:
    """Cumulative per-stage wall time of the decision hot path.

    Stages: ``features`` (graph cache + dynamic feature refresh, incl. the
    batch merge), ``propagation`` (GNN message passing + summaries),
    ``policy`` (node-scoring head) and ``sampling`` (softmax + draw + the
    parallelism-limit and executor-class heads).  The broker relays the
    ``STATS`` rows through its stats section so the control plane can show
    where decision time goes.
    """

    STAGES = ("features", "propagation", "policy", "sampling")
    STATS = (
        ("num_steps", "stage_steps_total", "counter",
         "act()/act_batch() calls timed by the stage clock"),
        ("mean_ms", "stage_mean_ms", "gauge",
         "Per-step mean wall time of each hot-path stage", "stage"),
    )

    __slots__ = ("num_steps", "features_s", "propagation_s", "policy_s", "sampling_s")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.num_steps = 0
        self.features_s = 0.0
        self.propagation_s = 0.0
        self.policy_s = 0.0
        self.sampling_s = 0.0

    def add(
        self, features: float, propagation: float, policy: float, sampling: float
    ) -> None:
        self.num_steps += 1
        self.features_s += features
        self.propagation_s += propagation
        self.policy_s += policy
        self.sampling_s += sampling

    def clock(self, parent_spans: Sequence = ()) -> "_StageClock":
        """One decision's stage clock: ``mark()`` per stage boundary, then
        ``finish()`` accumulates into these totals and — when tracing —
        emits one child span per stage under each parent span."""
        return _StageClock(self, parent_spans)

    @property
    def mean_ms(self) -> dict:
        """Per-step mean wall time of each stage, in milliseconds."""
        steps = self.num_steps
        return {
            stage: (getattr(self, f"{stage}_s") / steps * 1e3) if steps else 0.0
            for stage in self.STAGES
        }


class _StageClock:
    """Per-decision timing of the four hot-path stages.

    Replaces the copy-pasted ``t0..t4 = perf_counter()`` blocks ``act`` and
    ``act_batch`` used to carry: create one at decision start, ``mark()``
    after each stage, ``finish()`` after sampling.  When parent spans are
    supplied (traced decisions), ``finish()`` also files one
    ``stage.<name>`` child span per stage under every parent — the wall
    timestamp is only taken when a trace is actually active, so the untraced
    hot path pays exactly the five ``perf_counter`` calls it always did.
    """

    __slots__ = ("_timings", "_spans", "_wall", "_marks")

    def __init__(self, timings: StageTimings, parent_spans: Sequence = ()):
        self._timings = timings
        self._spans = tuple(span for span in parent_spans if span is not None)
        self._wall = time.time() if self._spans else 0.0
        self._marks = [time.perf_counter()]

    def mark(self) -> None:
        self._marks.append(time.perf_counter())

    def finish(self) -> tuple:
        self._marks.append(time.perf_counter())
        marks = self._marks
        if len(marks) != len(StageTimings.STAGES) + 1:
            raise RuntimeError(
                f"stage clock finished after {len(marks) - 1} intervals; "
                f"expected {len(StageTimings.STAGES)}"
            )
        durations = tuple(
            later - earlier for earlier, later in zip(marks, marks[1:])
        )
        self._timings.add(*durations)
        for parent in self._spans:
            offset = 0.0
            for stage, duration in zip(StageTimings.STAGES, durations):
                child = parent.child("stage." + stage)
                child.start_time = self._wall + offset
                child.finish(duration_ms=duration * 1e3)
                offset += duration
        return durations


class DecimaAgent(Module, Scheduler):
    """Learned scheduling policy (the paper's primary contribution).

    There is one way to decide: :meth:`act` is :meth:`act_batch` of one
    observation, and ``act_batch`` is features → merge → :meth:`_forward` →
    :meth:`_select` (see ``docs/ARCHITECTURE.md``, "One decision path").
    """

    name = "decima"

    def __init__(self, total_executors: int, config: Optional[DecimaConfig] = None):
        if total_executors <= 0:
            raise ValueError("total_executors must be positive")
        self.config = config or DecimaConfig()
        self.total_executors = int(total_executors)
        rng = np.random.default_rng(self.config.seed)
        # An ablation is a smaller network: without graph embeddings the
        # agent owns no GNN and its heads read zero-width embeddings.
        self.gnn: Optional[GraphNeuralNetwork] = None
        if self.config.use_graph_embedding:
            self.gnn = GraphNeuralNetwork(
                GNNConfig(
                    num_features=self.config.feature.num_features,
                    embedding_dim=self.config.embedding_dim,
                    hidden_sizes=self.config.hidden_sizes,
                    max_message_passing_depth=self.config.max_message_passing_depth,
                    two_level_aggregation=self.config.two_level_aggregation,
                ),
                rng,
            )
        self._limit_levels = self._build_limit_levels()
        # One-hot limit encoding: the level -> column mapping is static, so it
        # is precomputed here instead of being rebuilt on every act() call.
        self._limit_level_index = {
            int(level): i for i, level in enumerate(self._limit_levels)
        }
        limit_input_dim = 1 if self.config.limit_value_input else len(self._limit_levels)
        self.policy = PolicyNetwork(
            PolicyConfig(
                num_features=self.config.feature.num_features,
                embedding_dim=self.config.embedding_dim if self.gnn is not None else 0,
                hidden_sizes=self.config.hidden_sizes,
                use_executor_class_head=self.config.multi_resource,
                limit_input_dim=limit_input_dim,
            ),
            rng,
        )
        if not self.config.use_parallelism_control:
            # Nothing scores a limit.  Drawn above all the same, so the class
            # head keeps its weights.
            self.policy.limit_score = None
        # Inference-only arena of the heads (:meth:`_forward`, :meth:`_select`).
        self.workspace = Workspace()
        self.interarrival_hint: Optional[float] = None
        self._eval_rng = np.random.default_rng(self.config.seed + 1)
        # Per-episode incremental cache of the static graph structure; rebuilt
        # only when the set of live jobs changes (arrival/completion).
        self.graph_cache = GraphCache()
        # Cumulative per-stage wall time of every act()/act_batch() decision.
        self.stage_timings = StageTimings()
        # Instrumentation seam for the verification harness: when set, every
        # decision calls ``logits_tap(node_logits_row_data)`` once per
        # observation — a batch of one and a batch of N alike — with that
        # observation's own row slice of the (plain numpy) node logits, before
        # its stage is selected, so a trace recorder can digest the numbers
        # behind each decision.  While a tap is set the data path scores every
        # row instead of only the schedulable ones.  The ``None`` default
        # costs one identity check per observation.
        self.logits_tap = None

    # ---------------------------------------------------------------- helpers
    def _build_limit_levels(self) -> np.ndarray:
        num_levels = self.config.num_limit_levels
        if num_levels is None:
            num_levels = min(self.total_executors, 64)
        num_levels = max(1, min(num_levels, self.total_executors))
        levels = np.unique(
            np.round(np.linspace(1, self.total_executors, num_levels)).astype(int)
        )
        return levels

    def candidate_limits(self, job: JobDAG) -> np.ndarray:
        """Parallelism limits the agent may pick for ``job`` right now.

        The paper enforces that the limit exceeds the job's current executor
        count so every action assigns at least one new executor.
        """
        valid = self._limit_levels[self._limit_levels > job.num_active_executors]
        if valid.size == 0:
            valid = np.array([job.num_active_executors + 1])
        return valid

    def _limit_inputs(self, limits: np.ndarray) -> np.ndarray:
        """Encode candidate limits for the score function w(.) (scalar or one-hot)."""
        if self.config.limit_value_input:
            return (limits / self.total_executors).reshape(-1, 1)
        one_hot = np.zeros((len(limits), len(self._limit_levels)))
        level_index = self._limit_level_index
        for row, limit in enumerate(limits):
            one_hot[row, level_index.get(int(limit), len(self._limit_levels) - 1)] = 1.0
        return one_hot

    # ------------------------------------------------------------- scheduling
    def reset(self) -> None:
        self._eval_rng = np.random.default_rng(self.config.seed + 1)
        self.reset_graph_cache()

    def reset_graph_cache(self) -> None:
        """Invalidate the graph-structure cache (episode boundaries).

        The cache keys on job object identity, so stale entries can never be
        *wrongly* reused — this only releases the references pinning the
        previous episode's job DAGs.
        """
        self.graph_cache.reset()

    def schedule(self, observation: Observation) -> Optional[Action]:
        action, _ = self.act(
            observation,
            rng=self._eval_rng,
            greedy=self.config.greedy_evaluation,
        )
        return action

    def build_features(
        self,
        observation: Observation,
        graph_cache: Optional[GraphCache] = None,
        reuse_buffers: bool = False,
    ) -> GraphFeatures:
        """Graph inputs for ``observation`` under this agent's feature config.

        ``graph_cache`` overrides the agent-owned cache — the policy-serving
        layer passes each session's own cache so concurrently served clusters
        do not thrash a single structure slot.  ``reuse_buffers`` hands out
        the cache's persistent arrays (inference only — see
        :meth:`GraphCache.features`).
        """
        cache = graph_cache if graph_cache is not None else self.graph_cache
        return cache.features(
            observation,
            self.config.feature,
            interarrival_hint=self.interarrival_hint,
            reuse_buffers=reuse_buffers,
        )

    def act(
        self,
        observation: Observation,
        rng: Optional[np.random.Generator] = None,
        greedy: bool = False,
        graph_cache: Optional[GraphCache] = None,
        span=None,
        record: bool = False,
    ) -> tuple[Optional[Action], Optional[ActionRecord]]:
        """Pick a (stage, parallelism limit[, executor class]) action.

        This is :meth:`act_batch` of one observation (a single component
        passes through the merge untouched).  The second slot of the result
        is ``None`` unless ``record=True`` (the trainers), which returns the
        decision's :class:`ActionRecord`.

        ``span`` (a :class:`repro.obs.tracing.Span`, or None) is the traced
        parent of this decision; when set, the four stage timings are also
        filed as its child spans.
        """
        return self.act_batch(
            [observation],
            rngs=[rng if rng is not None else self._eval_rng],
            greedy=greedy,
            graph_caches=[graph_cache],
            spans=None if span is None else [span],
            record=record,
        )[0]

    def record_action(
        self,
        observation: Observation,
        node: Node,
        parallelism_limit: int,
        graph_cache: Optional[GraphCache] = None,
        executor_class: Optional[ExecutorClass] = None,
    ) -> ActionRecord:
        """The :class:`ActionRecord` of a *given* action on ``observation``.

        The online-learning trainer replays serving decisions it did not take
        itself; this is the record :meth:`act` would have handed back had it
        made that choice.  ``node`` must be one of the observation's
        schedulable nodes (by object identity), ``parallelism_limit`` one of
        :meth:`candidate_limits` for its job and — when the multi-resource
        head applies to the observation — ``executor_class`` one of the
        classes eligible for the node.
        """
        if not observation.schedulable_nodes:
            raise ValueError("observation has no schedulable nodes to score")
        graph = self.build_features(observation, graph_cache=graph_cache)
        node_row = graph.node_index.get(id(node))
        if node_row is None or not graph.schedulable_mask[node_row]:
            raise ValueError("node is not a schedulable node of this observation")
        record = ActionRecord(graph=graph, node_row=node_row)
        if self.config.use_parallelism_control:
            record.limits = self.candidate_limits(node.job)
            record.limit_row = _row_of(
                int(parallelism_limit), record.limits.tolist(), "limit", "this job"
            )
        record.classes = self._eligible_classes(observation, node)
        if record.classes:
            record.class_row = _row_of(
                executor_class, record.classes, "executor class", "this node"
            )
        return record

    def score_actions(self, records: Sequence[ActionRecord]) -> StepInfo:
        """Log-probabilities and entropies of recorded choices, on ONE autograd graph.

        The records (typically a chunk of consecutive decisions of one
        episode) merge into a single disconnected mega-graph exactly as
        concurrent sessions do in :meth:`act_batch`.  The GNN embeds each
        distinct job state of the chunk once (:func:`_distinct_job_states`);
        every merged job gathers its state's embedding, and each record's
        global embedding sums its own jobs (an agent without a GNN hands the
        heads zero-width embeddings).  Each head is then scored once for
        the whole chunk: one segment log-softmax over the node logits of the
        schedulable rows (a record's segment is its own schedulable nodes —
        Eq. 2 gives every other row probability zero), one over the stacked
        limit-head pass, one over the stacked class-head pass of the records
        that carry a class choice.  The returned ``log_prob`` and ``entropy``
        are ``(K,)`` tensors, entry ``k`` the heads of record ``k`` summed.
        REINFORCE gradients flow through them; the graph lives exactly as
        long as they do.
        """
        batch = GraphBatch.merge([record.graph for record in records])
        graph = batch.features
        # The node head reads the schedulable rows only; each is the row at
        # the same offset in its job's state.
        schedulable = np.flatnonzero(graph.schedulable_mask)
        if self.gnn is None:
            embeddings = GraphEmbeddings.zero_width(graph, schedulable.size)
        else:
            states, state_of_job = _distinct_job_states(graph)
            state_nodes = self.gnn.node_embeddings(states)
            jobs = gather_rows(self.gnn.job_embeddings(states, state_nodes), state_of_job)
            scored_jobs = graph.job_ids[schedulable]
            state_rows = (
                states.structure.job_node_offsets[state_of_job[scored_jobs]]
                + schedulable
                - graph.structure.job_node_offsets[scored_jobs]
            )
            embeddings = GraphEmbeddings(
                node_embeddings=gather_rows(state_nodes, state_rows),
                job_embeddings=jobs,
                global_embedding=self.gnn.global_embedding(jobs, graph),
            )
        node_logits = self.policy.node_logits(graph, embeddings, schedulable)
        starts = np.array([rows.start for rows in batch.node_slices], dtype=np.intp)
        node_rows = starts + np.array([record.node_row for record in records], dtype=np.intp)
        # Each record's first schedulable entry, and its chosen one, among
        # the scored rows.
        firsts = np.searchsorted(schedulable, starts)
        info = _segments_scored(
            node_logits,
            np.diff(firsts, append=schedulable.size),
            np.searchsorted(schedulable, node_rows) - firsts,
        )
        job_rows = graph.job_ids[node_rows]
        if self.config.use_parallelism_control:
            limits = [record.limits for record in records]
            stacked_logits, _ = self._limit_logits(graph, embeddings, job_rows, limits)
            info += _segments_scored(
                stacked_logits,
                [len(candidates) for candidates in limits],
                [record.limit_row for record in records],
            )
        classed = [position for position, record in enumerate(records) if record.classes]
        if classed:
            counts = [len(records[position].classes) for position in classed]
            class_logits = self.policy.class_logits(
                graph,
                embeddings,
                np.repeat(job_rows[classed], counts),
                [cls for position in classed for cls in records[position].classes],
            )
            scored = _segments_scored(
                class_logits, counts, [records[position].class_row for position in classed]
            )
            info = StepInfo(
                scatter_add_rows(info.log_prob, classed, scored.log_prob),
                scatter_add_rows(info.entropy, classed, scored.entropy),
            )
        return info

    def act_batch(
        self,
        observations: Sequence[Observation],
        rngs: Optional[Sequence[Optional[np.random.Generator]]] = None,
        greedy: bool = False,
        graph_caches: Optional[Sequence[Optional[GraphCache]]] = None,
        merge_cache: Optional[MergedStructureCache] = None,
        spans: Optional[Sequence] = None,
        record: bool = False,
    ) -> list[tuple[Optional[Action], Optional[ActionRecord]]]:
        """Decide for several independent observations in ONE batched forward.

        The observations (typically one per served cluster session) merge into
        a single disconnected mega-graph; the GNN message passing, job/global
        summaries, the node-scoring head AND the parallelism-limit head all
        run once over the union, then each observation's decision is split
        back out of its row ranges with its own rng stream.  Per-graph global
        embeddings and per-session softmax slices mean a session's decisions
        do not depend on what else shares its batch — batching is pure
        throughput, never a behaviour change (see ``docs/ARCHITECTURE.md``,
        "Serving layer").

        ``rngs`` / ``graph_caches`` / ``spans`` align with ``observations``;
        entries may be ``None`` (a ``None`` cache is the agent's own, so at
        most one observation may leave its cache out).  Observations with no
        schedulable node yield ``(None, None)``.  ``record`` fills the second
        slot of each result as described at :meth:`act`.
        Traced observations' parent ``spans`` each receive the merged
        forward's four stage timings as child spans (the stages ran once for
        the whole batch, so every traced decision sees the same stage
        breakdown — which is the truth of the batched data path).
        """
        rngs = rngs if rngs is not None else [None] * len(observations)
        graph_caches = (
            graph_caches if graph_caches is not None else [None] * len(observations)
        )
        if len(rngs) != len(observations) or len(graph_caches) != len(observations):
            raise ValueError("observations, rngs and graph_caches must align")
        caches = {
            id(cache if cache is not None else self.graph_cache) for cache in graph_caches
        }
        if len(caches) != len(graph_caches):
            # A cache refreshes its feature and mask buffers in place, so a
            # later observation would overwrite an earlier one's inputs
            # before the merge.
            raise ValueError(
                "act_batch needs one graph cache per observation; pass graph_caches="
            )
        if not greedy and any(rng is None for rng in rngs):
            # Sampling from one shared rng would consume it in phase order
            # (all stage draws, then all limit draws) instead of per
            # observation, so a session's stream would depend on its batch
            # mates.  Greedy decisions draw nothing, so only sampling
            # requires explicit per-observation streams.
            raise ValueError(
                "sampled act_batch needs one rng per observation; pass rngs="
            )
        results: list = [(None, None)] * len(observations)
        active = [
            index
            for index, observation in enumerate(observations)
            if observation.schedulable_nodes
        ]
        if not active:
            return results
        clock = self.stage_timings.clock(spans if spans is not None else ())
        # Arena buffers are only handed out when nothing outlives the decision:
        # a record keeps its component's arrays until the update.
        reuse_buffers = not record
        components = [
            self.build_features(
                observations[index],
                graph_cache=graph_caches[index],
                reuse_buffers=reuse_buffers,
            )
            for index in active
        ]
        batch = GraphBatch.merge(
            components, structure_cache=merge_cache, reuse_buffers=reuse_buffers
        )
        clock.mark()
        embeddings, node_logits = self._forward(batch.features, clock)
        decisions = self._select(
            batch.features,
            embeddings,
            node_logits,
            [observations[index] for index in active],
            batch.node_slices,
            [rngs[index] for index in active],
            greedy,
            components if record else None,
        )
        for index, decision in zip(active, decisions):
            results[index] = decision
        clock.finish()
        return results

    def _forward(
        self, graph: GraphFeatures, clock: _StageClock
    ) -> tuple[GraphEmbeddings, Tensor]:
        """Embeddings and node logits of ``graph``; marks ``clock`` twice.

        The arena-buffered data path, whose numbers — and therefore
        decisions — match the autograd ops REINFORCE trains on (differential
        pair ``inference_kernels_vs_tensor``).  An agent without a GNN hands
        the heads zero-width embeddings.
        """
        if self.gnn is None:
            embeddings = GraphEmbeddings.zero_width(graph)
        else:
            embeddings = GraphEmbeddings(*map(Tensor, self.gnn.forward_data(graph)))
        clock.mark()
        # A trace recorder's tap digests each observation's full logit slice,
        # so only the untapped hot path restricts scoring to the schedulable
        # rows.
        rows = (
            None
            if self.logits_tap is not None
            else np.flatnonzero(graph.schedulable_mask)
        )
        node_logits = Tensor(
            self.policy.node_logits_data(
                graph,
                embeddings.node_embeddings.data,
                embeddings.job_embeddings.data,
                embeddings.global_embedding.data,
                self.workspace,
                rows=rows,
            )
        )
        clock.mark()
        return embeddings, node_logits

    def act_on_graph(
        self,
        graph: GraphFeatures,
        embeddings: GraphEmbeddings,
        node_logits: Tensor,
        observation: Observation,
        rng: Optional[np.random.Generator] = None,
        greedy: bool = False,
        training: bool = False,
        node_rows: Optional[slice] = None,
    ) -> tuple[Optional[Action], None]:
        """Select one observation's action from a prebuilt forward pass.

        The single-slice entry to :meth:`_select`.  ``graph`` / ``embeddings``
        / ``node_logits`` may cover *more* than this observation: when they
        come from a cross-session mega-graph, pass ``node_rows`` to restrict
        the decision to one session's node-row range (job and global rows
        follow from the graph's own segment ids).

        ``training`` is the last remnant of the per-decision autograd path,
        now the oracle :func:`repro.verify.oracles.scored_act`.  The repo
        benchmark still passes ``training=False`` (``bench/layers.py``), so
        the keyword stays until it stops (ROADMAP.md, item 2(ii)); ``True``
        is refused.
        """
        if training:
            raise ValueError(
                "act_on_graph decides on the data path only; "
                "repro.verify.oracles.scored_act scores a decision"
            )
        return self._select(
            graph,
            embeddings,
            node_logits,
            [observation],
            [node_rows if node_rows is not None else slice(0, graph.num_nodes)],
            [rng if rng is not None else self._eval_rng],
            greedy,
        )[0]

    def _select(
        self,
        graph: GraphFeatures,
        embeddings: GraphEmbeddings,
        node_logits: Tensor,
        observations: Sequence[Observation],
        node_slices: Sequence[slice],
        rngs: Sequence[Optional[np.random.Generator]],
        greedy: bool,
        components: Optional[Sequence[GraphFeatures]] = None,
    ) -> list[tuple[Optional[Action], Optional[ActionRecord]]]:
        """Stage → limit → class selection for every observation of a forward.

        ``node_slices[k]`` is observation ``k``'s node-row range of ``graph``.
        The stage softmax, limit head and class head of an observation see
        exactly the rows a forward pass over that observation alone would
        have produced, and its rng is drawn from in the fixed order stage,
        limit, class — which is what makes a decision independent of the
        batch it was taken in.  The heads run on the data path (the arena
        ``self.workspace``), so no tape is recorded.  With
        ``components`` (observation ``k``'s own :class:`GraphFeatures`) each
        decision comes with its :class:`ActionRecord`.
        """
        count = len(observations)
        nodes: list[Optional[Node]] = [None] * count
        job_rows = [0] * count  # global job row of each chosen node
        limits = [self.total_executors] * count
        records: list[Optional[ActionRecord]] = [None] * count
        workspace = self.workspace
        stage_logits = node_logits.data

        # Phase 1: per-observation stage selection (masked softmax over the
        # schedulable nodes, Eq. 2).
        for position, node_rows in enumerate(node_slices):
            if self.logits_tap is not None:
                self.logits_tap(node_logits.data[node_rows])
            node_mask = graph.schedulable_mask[node_rows]
            if not node_mask.any():
                continue
            node_row = sample_row(
                stage_logits[node_rows], node_mask, rngs[position], greedy
            )
            global_row = node_rows.start + node_row
            nodes[position] = graph.nodes[global_row]
            job_rows[position] = int(graph.job_ids[global_row])
            if components is not None:
                records[position] = ActionRecord(components[position], node_row)
        chosen = [position for position in range(count) if nodes[position] is not None]

        # Phase 2: ONE stacked pass through the limit head for every
        # observation's candidate limits, then per-observation softmax + draw.
        if self.config.use_parallelism_control and chosen:
            candidates = [
                self.candidate_limits(graph.jobs[job_rows[position]])
                for position in chosen
            ]
            stacked_logits, limit_slices = self._limit_logits(
                graph, embeddings, [job_rows[position] for position in chosen],
                candidates, workspace,
            )
            for position, candidate, rows in zip(chosen, candidates, limit_slices):
                limit_row = sample_row(stacked_logits[rows], None, rngs[position], greedy)
                limits[position] = int(candidate[limit_row])
                if components is not None:
                    records[position].limits = candidate
                    records[position].limit_row = limit_row

        # Phase 3: the (rare) multi-resource class head, then the actions.
        results: list = [(None, None)] * count
        for position in chosen:
            executor_class = None
            classes = self._eligible_classes(observations[position], nodes[position])
            if classes:
                class_logits = self.policy.class_logits(
                    graph, embeddings, job_rows[position], classes, workspace
                )
                class_row = sample_row(class_logits, None, rngs[position], greedy)
                executor_class = classes[class_row]
                if components is not None:
                    records[position].classes = classes
                    records[position].class_row = class_row
            action = Action(
                node=nodes[position],
                parallelism_limit=limits[position],
                executor_class=executor_class,
            )
            results[position] = (action, records[position])
        return results

    def _limit_logits(
        self,
        graph: GraphFeatures,
        embeddings: GraphEmbeddings,
        job_rows: Sequence[int],
        candidates: Sequence[np.ndarray],
        workspace: Optional[Workspace] = None,
    ) -> tuple["Tensor | np.ndarray", list[slice]]:
        """ONE stacked pass through the limit head for several decisions.

        ``candidates[k]`` are the limits scored for job row ``job_rows[k]``;
        returns the stacked logits (a plain array when a ``workspace`` puts
        the head on the data path) and each decision's row range in them.
        """
        stacked_logits = self.policy.limit_logits_rows(
            graph,
            embeddings,
            np.repeat(
                np.array(job_rows, dtype=np.intp),
                [len(candidate) for candidate in candidates],
            ),
            np.vstack([self._limit_inputs(candidate) for candidate in candidates]),
            workspace,
        )
        slices = []
        offset = 0
        for candidate in candidates:
            slices.append(slice(offset, offset + len(candidate)))
            offset += len(candidate)
        return stacked_logits, slices

    def _eligible_classes(self, observation: Observation, node: Node) -> list:
        """Executor classes ``node`` may be placed on now (multi-resource only)."""
        if not (self.config.multi_resource and observation.executor_classes):
            return []
        return [
            cls
            for cls in observation.executor_classes
            if cls.fits(node) and observation.free_executors_by_class.get(cls, 0) > 0
        ]
