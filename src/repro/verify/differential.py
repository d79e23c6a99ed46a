"""Differential oracle runner: one harness for every fast/oracle pair.

The repo ships several "fast path vs reference path" implementation pairs,
each of which must be *behaviourally identical* at fixed seeds (the reference
sides live in :mod:`repro.verify.oracles`):

* sparse frontier message passing vs the dense O(N²) GNN oracle;
* the data path re-embedding only the jobs whose features changed vs the
  same path remembering nothing;
* the incremental :class:`~repro.core.features.GraphCache` vs from-scratch
  feature building;
* in-process rollout collection vs the parallel worker pool;
* cross-session batched service dispatch vs per-session serial dispatch;
* router→shard sharded fleet dispatch vs single-server serial dispatch;
* and, trivially, any registered scheduler against itself across runs
  (determinism).

This module replaces the four bespoke equivalence suites with one runner:
every *variant* is a named function from a :class:`DifferentialTask` (a
seeded scenario) to an :class:`~repro.verify.trace.EpisodeTrace`, and
:func:`run_differential` executes two variants on the same task and diffs
their decision streams, reporting the first divergence with full context
(step index, observation fingerprints, both records).
"""

from __future__ import annotations

import copy
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.agent import DecimaAgent, DecimaConfig
from ..core.checkpoints import agent_spec
from ..core.parallel import EpisodeSpec, RolloutWorkerPool, episode_environment
from ..core.rollout import RolloutSampler
from ..experiments.scenarios import ScenarioSpec, get_scenario
from ..schedulers import scheduler_names
from ..service.batcher import RequestBroker
from ..simulator.environment import SchedulingEnvironment
from .oracles import (
    DenseGNNAgent,
    ForgetfulAgent,
    ReferenceAgent,
    ScratchFeaturesAgent,
    SerialRequestBroker,
    TensorForwardAgent,
)
from .recorder import TraceRecorder, scenario_workload_rng
from .replay import DEFAULT_COMPARE_FIELDS, DivergenceReport, first_divergence
from .trace import DecisionRecord, EpisodeTrace, TraceHeader, observation_fingerprint

__all__ = [
    "DifferentialTask",
    "DifferentialReport",
    "VariantFn",
    "IMPLEMENTATION_PAIRS",
    "register_variant",
    "variant_names",
    "resolve_variant",
    "run_differential",
    "run_pair",
]


@dataclass(frozen=True)
class DifferentialTask:
    """One seeded scenario every variant must reproduce identically.

    ``scenario`` is a registry name or an ad-hoc :class:`ScenarioSpec`;
    ``num_sessions`` only matters for the service variants (how many
    concurrent simulated clusters share the broker) and ``episode_time``
    only for the rollout variants (the truncated-episode horizon).
    """

    scenario: Union[str, ScenarioSpec]
    seed: int = 0
    num_jobs: Optional[int] = None
    num_executors: Optional[int] = None
    max_decisions: Optional[int] = None
    num_sessions: int = 3
    episode_time: float = 2_000.0

    def resolve_spec(self) -> ScenarioSpec:
        if isinstance(self.scenario, ScenarioSpec):
            return self.scenario
        return get_scenario(
            self.scenario, num_jobs=self.num_jobs, num_executors=self.num_executors
        )

    def build_jobs(self, spec: ScenarioSpec, stream: int = 0):
        """The task's deterministic job set (``stream`` > 0 for per-session sets)."""
        if stream == 0:
            rng = scenario_workload_rng(spec.name, self.seed)
        else:
            rng = np.random.default_rng(
                [self.seed, int(stream), zlib.crc32(spec.name.encode("utf-8"))]
            )
        return spec.build_jobs(rng)


VariantFn = Callable[[DifferentialTask], EpisodeTrace]

_VARIANTS: Dict[str, VariantFn] = {}


def register_variant(name: str, fn: VariantFn, overwrite: bool = False) -> None:
    """Add a named implementation variant to the differential registry."""
    if not overwrite and name in _VARIANTS:
        raise ValueError(f"variant {name!r} is already registered")
    _VARIANTS[name] = fn


def variant_names() -> tuple:
    """Registered variant names plus the dynamic ``scheduler:<name>`` family."""
    return tuple(_VARIANTS) + tuple(
        f"scheduler:{name}" for name in scheduler_names()
    )


def resolve_variant(name: str) -> VariantFn:
    """Look a variant up by name; ``scheduler:<registered>`` resolves any
    scheduler in the scheduler registry into a trace-producing variant."""
    if name in _VARIANTS:
        return _VARIANTS[name]
    if name.startswith("scheduler:"):
        scheduler = name.split(":", 1)[1]
        if scheduler in scheduler_names():
            return lambda task: _scheduler_stream(task, scheduler)
    known = ", ".join(variant_names())
    raise KeyError(f"unknown variant {name!r}; known variants: {known}")


# ------------------------------------------------------------- variant builders
def _build_decima(config, agent_class: type = DecimaAgent) -> DecimaAgent:
    multi = len({cls for cls, _ in config.executor_classes or []}) > 1
    return agent_class(
        total_executors=config.num_executors,
        config=DecimaConfig(seed=0, multi_resource=multi),
    )


def _record(task: DifferentialTask, scheduler, label: str) -> EpisodeTrace:
    spec = task.resolve_spec()
    jobs = task.build_jobs(spec)
    simulator_config = spec.build_config(seed=task.seed)
    environment = SchedulingEnvironment(simulator_config)
    header = TraceHeader(
        scenario=spec.name,
        scheduler=label,
        seed=task.seed,
        num_jobs=task.num_jobs,
        num_executors=task.num_executors,
        max_decisions=task.max_decisions,
    )
    return TraceRecorder(header).record(
        environment, scheduler, jobs, seed=task.seed, max_decisions=task.max_decisions
    )


def _scheduler_stream(task: DifferentialTask, scheduler_name: str) -> EpisodeTrace:
    from ..schedulers import make_scheduler

    spec = task.resolve_spec()
    simulator_config = spec.build_config(seed=task.seed)
    return _record(
        task,
        make_scheduler(scheduler_name, simulator_config),
        f"scheduler:{scheduler_name}",
    )


def _decima_stream(task: DifferentialTask, label: str, agent_class: type = DecimaAgent):
    spec = task.resolve_spec()
    simulator_config = spec.build_config(seed=task.seed)
    return _record(task, _build_decima(simulator_config, agent_class), label)


# --------------------------------------------------- rollout-backend variants
def _rollout_setup(task: DifferentialTask):
    spec = task.resolve_spec()
    simulator_config = spec.build_config(seed=task.seed)
    agent = _build_decima(simulator_config)
    episode = EpisodeSpec(
        jobs=task.build_jobs(spec),
        episode_time=task.episode_time,
        env_seed=task.seed,
        action_seed=task.seed + 1,
        max_actions=task.max_decisions,
    )
    header = TraceHeader(
        scenario=spec.name,
        scheduler="rollout",
        seed=task.seed,
        num_jobs=task.num_jobs,
        num_executors=task.num_executors,
        max_decisions=task.max_decisions,
    )
    return simulator_config, agent, episode, header


def _rollout_serial(task: DifferentialTask) -> EpisodeTrace:
    """In-process sampled rollout, recorded like any other scheduler's episode."""
    simulator_config, agent, episode, header = _rollout_setup(task)
    return TraceRecorder(header).record(
        episode_environment(simulator_config, episode.episode_time),
        RolloutSampler(agent, np.random.default_rng(episode.action_seed)),
        copy.deepcopy(episode.jobs),
        seed=episode.env_seed,
        max_decisions=episode.max_actions,
    )


def _rollout_parallel(task: DifferentialTask) -> EpisodeTrace:
    """The same episode collected in a rollout worker process."""
    simulator_config, agent, episode, header = _rollout_setup(task)
    with RolloutWorkerPool(simulator_config, agent_spec(agent), num_workers=1) as pool:
        (outcome,) = pool.map(
            "collect", [copy.deepcopy(episode)], agent.state_dict(), None
        )
    trace = EpisodeTrace(header=header)
    for step, (reward, wall_time) in enumerate(zip(outcome.rewards, outcome.wall_times)):
        trace.decisions.append(
            DecisionRecord(
                step=step,
                wall_time=float(wall_time),
                obs_fingerprint="",
                reward=float(reward),
            )
        )
    trace.summary = {
        "num_decisions": len(trace.decisions),
        "total_reward": float(outcome.total_reward),
    }
    return trace


# ---------------------------------------------------------- service variants
def _service_stream(
    task: DifferentialTask,
    label: str,
    broker_class: type = RequestBroker,
    num_shards: int = 1,
    online: bool = False,
) -> EpisodeTrace:
    """Drive ``num_sessions`` concurrent clusters through request broker(s).

    Observations travel through the real wire encoding and shadow-DAG
    reconciliation; decisions flow back through the broker's decision tap.
    With ``num_shards > 1`` this models the sharded fleet's dispatch path:
    sessions are partitioned across shards by the router's
    :func:`~repro.service.router.shard_for_session` hash and each shard
    answers its own sub-batch with its own (identically parameterised) agent
    and broker.  The produced stream (session, job, node, limit) must be
    identical for :class:`RequestBroker`, the one-request-per-pass
    :class:`~repro.verify.oracles.SerialRequestBroker` and any shard count,
    because a session's decisions depend only on its own rng stream, graph
    cache and observations.

    With ``online=True`` the *entire* online-learning loop runs against the
    broker at ``learning_rate=0``: experience is collected off the decision
    tap, replayed, an Adam step applied (bit-neutral at lr 0), the result
    checkpointed and hot-swapped into the broker mid-stream.  The decision
    stream must still be identical to frozen serving — only the recorded
    ``policy_version`` may differ — which is the ``frozen_vs_online`` pair's
    guarantee: learning plumbing cannot perturb serving behaviour.
    """
    from ..service import (
        DecisionRequest,
        SessionState,
        decode_action,
        encode_observation,
        shard_for_session,
    )

    spec = task.resolve_spec()
    simulator_config = spec.build_config(seed=task.seed)
    header = TraceHeader(
        scenario=spec.name,
        scheduler=label,
        seed=task.seed,
        num_jobs=task.num_jobs,
        num_executors=task.num_executors,
        max_decisions=task.max_decisions,
    )
    trace = EpisodeTrace(header=header)

    # Decisions are buffered per round (keyed by session id) and flushed in
    # session order, so the recorded stream is invariant to which shard's
    # broker happened to answer first.
    round_records: Dict[str, dict] = {}

    def tap(request, result) -> None:
        action = result.action
        job = action.node.job if action is not None and action.node is not None else None
        round_records[request.session.session_id] = dict(
            wall_time=float(request.observation.wall_time),
            obs_fingerprint=observation_fingerprint(request.observation),
            job=job.name if job is not None else None,
            node=action.node.node_id if action is not None and action.node else None,
            limit=int(action.parallelism_limit) if action is not None else None,
            session=request.session.session_id,
            policy_version=int(result.policy_version),
        )

    # Every shard hosts its own agent; identical construction gives identical
    # parameters (DecimaConfig(seed=0) init is deterministic), exactly as the
    # fleet rebuilds one agent per shard process from the same spec + state.
    brokers = [
        broker_class(
            _build_decima(simulator_config),
            greedy=False,
            decision_tap=tap,
        )
        for _ in range(num_shards)
    ]
    manager = None
    store_dir = None
    if online:
        import tempfile

        from ..core.checkpoints import CheckpointStore
        from ..learning import (
            OnlineLearningConfig,
            OnlineLearningManager,
        )

        store_dir = tempfile.TemporaryDirectory(prefix="online-diff-")
        # lr=0 keeps the Adam step bit-neutral; the huge guard probation
        # pins the run to exactly one mid-stream hot-swap, so the variant is
        # deterministic.  The manager chains its collector onto ``tap``.
        manager = OnlineLearningManager(
            brokers[0],
            CheckpointStore(store_dir.name),
            OnlineLearningConfig(
                episodes_per_update=1,
                segment_steps=4,
                trainer_process=False,
                guard_min_decisions=1_000_000_000,
                learning_rate=0.0,
            ),
        )
    environments, observations, sessions, shard_of = [], [], [], []
    for index in range(task.num_sessions):
        jobs = task.build_jobs(spec, stream=index + 1)
        environment = SchedulingEnvironment(spec.build_config(seed=task.seed + index))
        environments.append(environment)
        observations.append(environment.reset(jobs, seed=task.seed + index))
        session_id = f"s{index}"
        sessions.append(
            SessionState(
                session_id,
                num_executors=simulator_config.num_executors,
                seed=1_000 + task.seed * 31 + index,
            )
        )
        shard_of.append(shard_for_session(session_id, num_shards))
    # ``max_decisions`` caps *recorded decisions* (matching the header field's
    # meaning everywhere else); the round bound is only a safety valve against
    # sessions that never finish.  All variants truncate identically because
    # their per-round decision streams are identical.
    max_rounds = 60
    for round_index in range(max_rounds):
        if (
            task.max_decisions is not None
            and len(trace.decisions) >= task.max_decisions
        ):
            break
        pending = [
            (index, observation)
            for index, observation in enumerate(observations)
            if observation is not None
        ]
        if not pending:
            break
        requests = {
            index: DecisionRequest(
                session=sessions[index],
                observation=sessions[index].observation_from_snapshot(
                    encode_observation(observation)
                ),
            )
            for index, observation in pending
        }
        round_records.clear()
        results: Dict[int, object] = {}
        for shard in range(num_shards):
            shard_indices = [i for i, _ in pending if shard_of[i] == shard]
            if not shard_indices:
                continue
            answers = brokers[shard].decide([requests[i] for i in shard_indices])
            results.update(zip(shard_indices, answers))
        for index, observation in pending:
            fields = round_records[sessions[index].session_id]
            trace.decisions.append(
                DecisionRecord(step=len(trace.decisions), **fields)
            )
            action = decode_action(
                requests[index].session.encode_action(results[index].action),
                observation,
            )
            next_observation, _, done = environments[index].step(action)
            observations[index] = None if done else next_observation
        if manager is not None and round_index % 3 == 2:
            manager.maybe_update()
    if task.max_decisions is not None:
        del trace.decisions[task.max_decisions:]
    trace.summary = {"num_decisions": len(trace.decisions)}
    if manager is not None:
        trace.summary["num_updates_applied"] = manager.num_updates_applied
        trace.summary["policy_version"] = manager.policy_version
        manager.stop()
        store_dir.cleanup()
    return trace


register_variant("decima:default", lambda task: _decima_stream(task, "decima:default"))
register_variant("decima:dense_gnn", lambda task: _decima_stream(task, "decima:dense_gnn", DenseGNNAgent))
register_variant("decima:scratch_features", lambda task: _decima_stream(task, "decima:scratch_features", ScratchFeaturesAgent))
register_variant("decima:reference", lambda task: _decima_stream(task, "decima:reference", ReferenceAgent))
# The inference data path's oracle: every decision through the training forward.
register_variant("decima:tensor_forward", lambda task: _decima_stream(task, "decima:tensor_forward", TensorForwardAgent))
# Embedding reuse's oracle: the same data path, remembering nothing.
register_variant("decima:full_gnn", lambda task: _decima_stream(task, "decima:full_gnn", ForgetfulAgent))
register_variant("rollout:serial", _rollout_serial)
register_variant("rollout:parallel", _rollout_parallel)
register_variant("service:batched", lambda task: _service_stream(task, "service:batched"))
register_variant("service:serial", lambda task: _service_stream(task, "service:serial", SerialRequestBroker))
register_variant("service:sharded", lambda task: _service_stream(task, "service:sharded[2]", num_shards=2))
# The full online-learning loop (collect → replay → lr=0 update → checkpoint
# → hot-swap) running against the broker mid-stream; must not perturb any
# decision relative to frozen serving.
register_variant("service:online", lambda task: _service_stream(task, "service:online", online=True))

# The named fast/oracle pairs the repo guarantees, each with the decision
# fields that define "the same decision" for that pair (worker outcomes carry
# no node identities, so the rollout pair compares reward/wall-time streams).
IMPLEMENTATION_PAIRS: Dict[str, dict] = {
    "sparse_vs_dense_gnn": {
        "variants": ("decima:default", "decima:dense_gnn"),
        "fields": DEFAULT_COMPARE_FIELDS,
    },
    "cached_vs_scratch_features": {
        "variants": ("decima:default", "decima:scratch_features"),
        "fields": DEFAULT_COMPARE_FIELDS,
    },
    "fast_vs_reference": {
        "variants": ("decima:default", "decima:reference"),
        "fields": DEFAULT_COMPARE_FIELDS,
    },
    "inference_kernels_vs_tensor": {
        "variants": ("decima:default", "decima:tensor_forward"),
        "fields": DEFAULT_COMPARE_FIELDS,
    },
    # Only bites on graphs of ``repro.core.gnn.REUSE_MIN_NODES`` rows or more;
    # the tests run it with that constant patched to 0 as well.
    "incremental_vs_full_gnn": {
        "variants": ("decima:default", "decima:full_gnn"),
        "fields": DEFAULT_COMPARE_FIELDS,
    },
    "serial_vs_parallel_rollout": {
        "variants": ("rollout:serial", "rollout:parallel"),
        "fields": ("wall_time", "reward"),
    },
    "batched_vs_serial_service": {
        "variants": ("service:batched", "service:serial"),
        "fields": ("session", "job", "node", "limit", "wall_time", "obs_fingerprint"),
    },
    "sharded_vs_serial_service": {
        "variants": ("service:sharded", "service:serial"),
        "fields": ("session", "job", "node", "limit", "wall_time", "obs_fingerprint"),
    },
    # ``policy_version`` is deliberately excluded: hot-swaps bump it on the
    # online side while frozen serving stays at 1 — the pair pins *decisions*.
    "frozen_vs_online": {
        "variants": ("service:batched", "service:online"),
        "fields": ("session", "job", "node", "limit", "wall_time", "obs_fingerprint"),
    },
}


@dataclass
class DifferentialReport:
    """Outcome of one differential run: two variants on one seeded task."""

    variant_a: str
    variant_b: str
    scenario: str
    seed: int
    num_decisions: Tuple[int, int]
    divergence: Optional[DivergenceReport] = None
    traces: Tuple[EpisodeTrace, EpisodeTrace] = field(default=None, repr=False)  # type: ignore[assignment]

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def describe(self) -> str:
        status = "OK" if self.ok else "DIVERGED"
        head = (
            f"[{status}] {self.variant_a} vs {self.variant_b} on "
            f"{self.scenario} / seed {self.seed} "
            f"({self.num_decisions[0]} vs {self.num_decisions[1]} decisions)"
        )
        if self.divergence is None:
            return head
        return head + "\n" + self.divergence.describe()


def run_differential(
    variant_a: Union[str, VariantFn],
    variant_b: Union[str, VariantFn],
    task: DifferentialTask,
    fields: Sequence[str] = DEFAULT_COMPARE_FIELDS,
) -> DifferentialReport:
    """Run two variants on the same seeded task and diff their streams.

    Event streams and RNG checkpoints are compared only when both variants
    recorded them (the rollout/service variants produce decision streams
    only).
    """
    name_a = variant_a if isinstance(variant_a, str) else getattr(variant_a, "__name__", "a")
    name_b = variant_b if isinstance(variant_b, str) else getattr(variant_b, "__name__", "b")
    fn_a = resolve_variant(variant_a) if isinstance(variant_a, str) else variant_a
    fn_b = resolve_variant(variant_b) if isinstance(variant_b, str) else variant_b
    trace_a = fn_a(task)
    trace_b = fn_b(task)
    divergence = first_divergence(
        trace_a,
        trace_b,
        fields=fields,
        compare_events=bool(trace_a.events) and bool(trace_b.events),
        compare_rng=bool(trace_a.rng_checkpoints) and bool(trace_b.rng_checkpoints),
    )
    spec_name = task.scenario if isinstance(task.scenario, str) else task.scenario.name
    return DifferentialReport(
        variant_a=name_a,
        variant_b=name_b,
        scenario=spec_name,
        seed=task.seed,
        num_decisions=(trace_a.num_decisions, trace_b.num_decisions),
        divergence=divergence,
        traces=(trace_a, trace_b),
    )


def run_pair(pair: str, task: DifferentialTask) -> DifferentialReport:
    """Run one of the repo's named fast/oracle pairs on ``task``."""
    if pair not in IMPLEMENTATION_PAIRS:
        known = ", ".join(IMPLEMENTATION_PAIRS)
        raise KeyError(f"unknown implementation pair {pair!r}; known pairs: {known}")
    entry = IMPLEMENTATION_PAIRS[pair]
    variant_a, variant_b = entry["variants"]
    return run_differential(variant_a, variant_b, task, fields=entry["fields"])
