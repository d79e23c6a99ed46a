"""Tests for the policy-serving subsystem and its satellite helpers.

The load-bearing guarantees:

* cross-session batched inference is *decision-identical* to per-session
  serial inference at fixed seeds (any batch composition, sampled or greedy);
* the SLO circuit-breaker keeps sessions deciding (via the registered
  fallback heuristic) when the policy path is slow, dropping nothing;
* a checkpoint round-trips through the service: actions served from a saved
  + re-loaded agent match in-process ``agent.act`` on the same cluster.

The broad batched-vs-serial equivalence coverage moved to the differential
runner (``tests/test_differential.py``, pair ``batched_vs_serial_service``);
``TestBatchedSerialEquivalence`` below stays as the harness-independent
canary for that pair.
"""

import threading

import numpy as np
import pytest

from _helpers import make_tpch_env as make_env

from repro.core import (
    CheckpointStore,
    DecimaAgent,
    DecimaConfig,
    FeatureConfig,
    GraphBatch,
    GraphCache,
    MergedStructureCache,
    build_graph_features,
    merge_structures,
    parameter_fingerprint,
)
from repro.core.features import GraphStructure
from repro.schedulers import (
    FIFOScheduler,
    Scheduler,
    make_scheduler,
    register_scheduler,
    scheduler_names,
)
from repro.service import (
    CircuitBreaker,
    DecisionRequest,
    PolicyClient,
    PolicyServer,
    ProtocolError,
    RequestBroker,
    SessionState,
    drive_episode,
    encode_observation,
    run_load,
)
from repro.simulator import (
    SchedulingEnvironment,
    SimulatorConfig,
    latency_histogram,
    multi_resource_config,
)
from repro.simulator.multi_resource import assign_memory_requests
from repro.simulator.environment import Action
from repro.workloads import batched_arrivals, sample_tpch_jobs

# --------------------------------------------------------------------- helpers
class TestLatencyHistogram:
    def test_empty_sample(self):
        histogram = latency_histogram([])
        assert histogram["count"] == 0
        assert histogram["p99"] is None

    def test_single_value(self):
        histogram = latency_histogram([2.5])
        assert histogram == {
            "count": 1, "mean": 2.5, "p50": 2.5, "p95": 2.5, "p99": 2.5, "max": 2.5,
        }

    def test_percentiles(self):
        histogram = latency_histogram(range(1, 101))
        assert histogram["count"] == 100
        assert histogram["p50"] == pytest.approx(50.5)
        assert histogram["p95"] == pytest.approx(95.05)
        assert histogram["max"] == 100.0


class TestSchedulerRegistry:
    def test_builtins_registered(self):
        names = scheduler_names()
        assert "fifo" in names and "decima" in names and "weighted_fair" in names

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            make_scheduler("nope", SimulatorConfig(num_executors=4))

    def test_register_duplicate_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler("fifo", lambda config: FIFOScheduler())

    def test_register_custom_and_overwrite(self):
        class AlwaysFirst(Scheduler):
            name = "always_first"

            def schedule(self, observation):
                node = observation.schedulable_nodes[0]
                return Action(node=node, parallelism_limit=1)

        register_scheduler("always_first_test", lambda config: AlwaysFirst(),
                          overwrite=True)
        built = make_scheduler("always_first_test", SimulatorConfig(num_executors=2))
        assert isinstance(built, AlwaysFirst)


class TestCheckpointLatest:
    def agent(self):
        return DecimaAgent(
            total_executors=6,
            config=DecimaConfig(
                seed=3,
                hidden_sizes=(16, 8),
                embedding_dim=4,
                feature=FeatureConfig(include_interarrival_hint=True),
            ),
        )

    def test_save_writes_latest_pointer(self, tmp_path):
        agent = self.agent()
        store = CheckpointStore(tmp_path)
        store.save(agent)
        assert (tmp_path / "latest.json").exists()
        assert parameter_fingerprint(store.load()) == parameter_fingerprint(agent)

    def test_latest_tracks_newest_save(self, tmp_path):
        store = CheckpointStore(tmp_path)
        first = self.agent()
        store.save(first)
        second = self.agent()
        for parameter in second.parameters():
            parameter.data += 0.25
        store.save(second)
        loaded = CheckpointStore(tmp_path).load()  # a reader that saw no save
        assert parameter_fingerprint(loaded) == parameter_fingerprint(second)
        assert parameter_fingerprint(loaded) != parameter_fingerprint(first)

    def test_load_agent_rebuilds_architecture(self, tmp_path):
        agent = self.agent()
        CheckpointStore(tmp_path).save(agent)
        loaded = CheckpointStore(tmp_path).load()
        assert loaded.total_executors == 6
        assert loaded.config.hidden_sizes == (16, 8)
        assert loaded.config.embedding_dim == 4
        assert loaded.config.feature.include_interarrival_hint is True
        assert parameter_fingerprint(loaded) == parameter_fingerprint(agent)


# --------------------------------------------------------------- graph merging
class TestGraphMerging:
    def components(self):
        graphs = []
        for seed, num_jobs in ((0, 1), (1, 3), (2, 2)):
            _, observation = make_env(num_jobs=num_jobs, seed=seed)
            graphs.append(build_graph_features(observation))
        return graphs

    def test_merged_structure_matches_scratch_union(self):
        graphs = self.components()
        merged = merge_structures([graph.structure for graph in graphs])
        scratch = GraphStructure([job for graph in graphs for job in graph.jobs])
        np.testing.assert_array_equal(merged.edge_parent_rows, scratch.edge_parent_rows)
        np.testing.assert_array_equal(merged.edge_child_rows, scratch.edge_child_rows)
        np.testing.assert_array_equal(merged.node_heights, scratch.node_heights)
        np.testing.assert_array_equal(merged.job_ids, scratch.job_ids)
        np.testing.assert_array_equal(merged.num_tasks, scratch.num_tasks)
        assert len(merged.frontier_levels) == len(scratch.frontier_levels)
        for mine, reference in zip(merged.frontier_levels, scratch.frontier_levels):
            assert mine.height == reference.height
            np.testing.assert_array_equal(mine.target_rows, reference.target_rows)
            np.testing.assert_array_equal(mine.child_rows, reference.child_rows)
            np.testing.assert_array_equal(mine.message_rows, reference.message_rows)
            np.testing.assert_array_equal(mine.target_segments, reference.target_segments)

    def test_graph_ids_segment_jobs_by_component(self):
        graphs = self.components()
        merged = merge_structures([graph.structure for graph in graphs])
        assert merged.num_graphs == 3
        expected = np.concatenate(
            [np.full(graph.num_jobs, k) for k, graph in enumerate(graphs)]
        )
        np.testing.assert_array_equal(merged.job_graph_ids, expected)

    def test_single_component_passes_through(self):
        graph = self.components()[0]
        batch = GraphBatch.merge([graph])
        assert batch.features is graph
        assert batch.node_slices == [slice(0, graph.num_nodes)]

    def test_feature_width_mismatch_raises(self):
        _, obs_a = make_env(seed=0)
        _, obs_b = make_env(seed=1)
        narrow = build_graph_features(obs_a, FeatureConfig())
        wide = build_graph_features(
            obs_b, FeatureConfig(include_interarrival_hint=True)
        )
        with pytest.raises(ValueError, match="feature widths"):
            GraphBatch.merge([narrow, wide])

    def test_merged_structure_cache_reuses_stable_components(self):
        graphs = self.components()
        structures = [graph.structure for graph in graphs]
        cache = MergedStructureCache()
        first = cache.merged_structure(structures)
        second = cache.merged_structure(structures)
        assert first is second
        assert cache.num_rebuilds == 1
        cache.merged_structure(structures[:2])
        assert cache.num_rebuilds == 2


# -------------------------------------------------- batched/serial equivalence
def drive_sessions(batched: bool, num_sessions: int = 4, max_rounds: int = 60,
                   greedy: bool = False):
    """Drive ``num_sessions`` concurrent simulated clusters through a broker.

    Observations travel through the real wire encoding and shadow-DAG
    reconciliation; actions are applied to each session's own environment.
    Returns the per-session decision traces.
    """
    agent = DecimaAgent(total_executors=8, config=DecimaConfig(seed=0))
    broker = RequestBroker(agent, batched=batched, greedy=greedy)
    environments, observations, sessions = [], [], []
    for index in range(num_sessions):
        env, observation = make_env(
            num_jobs=2 + (index % 3), seed=10 + index, staggered=index % 2 == 0
        )
        environments.append(env)
        observations.append(observation)
        sessions.append(
            SessionState(f"s{index}", num_executors=8, seed=100 + index)
        )
    traces = [[] for _ in range(num_sessions)]
    for _ in range(max_rounds):
        pending = [
            (index, observation)
            for index, observation in enumerate(observations)
            if observation is not None
        ]
        if not pending:
            break
        requests = [
            DecisionRequest(
                session=sessions[index],
                observation=sessions[index].observation_from_snapshot(
                    encode_observation(observation)
                ),
            )
            for index, observation in pending
        ]
        results = broker.decide(requests)
        for (index, observation), request, result in zip(pending, requests, results):
            encoded = request.session.encode_action(result.action)
            if encoded["noop"]:
                action = None
                traces[index].append(("noop", None, None, result.source))
            else:
                job = next(
                    job for job in observation.job_dags
                    if job.job_id == encoded["job_id"]
                )
                node = next(
                    node for node in job.nodes if node.node_id == encoded["node_id"]
                )
                action = Action(
                    node=node, parallelism_limit=encoded["parallelism_limit"]
                )
                # Trace by the (seed-deterministic) job *name*, not the global
                # JobDAG id counter, so two independent runs are comparable.
                traces[index].append(
                    (job.name, encoded["node_id"],
                     encoded["parallelism_limit"], result.source)
                )
            next_observation, _, done = environments[index].step(action)
            observations[index] = None if done else next_observation
    return traces


class TestBatchedSerialEquivalence:
    @pytest.mark.parametrize("greedy", [False, True])
    def test_batched_decisions_identical_to_serial(self, greedy):
        """Acceptance: cross-session batching is bit-identical to per-session
        serial dispatch at fixed seeds (sampled and greedy)."""
        serial = drive_sessions(batched=False, greedy=greedy)
        batched = drive_sessions(batched=True, greedy=greedy)
        assert serial == batched
        assert all(len(trace) > 5 for trace in serial)
        assert all(source == "policy" for trace in serial for (_, _, _, source) in trace)

    def test_batch_composition_does_not_change_a_session(self):
        """A session's stream is invariant to *which* sessions share its batches."""
        alone = drive_sessions(batched=True, num_sessions=1)
        crowd = drive_sessions(batched=True, num_sessions=4)
        assert crowd[0] == alone[0]

    @pytest.mark.parametrize("workload", ["tpch", "multi_resource"])
    @pytest.mark.parametrize("training", [False, True], ids=["inference", "training"])
    @pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "sampled"])
    def test_act_batch_matches_act_on_live_observations(self, workload, training, greedy):
        """``act(obs)`` is ``act_batch([obs])[0]`` and is what the observation
        gets inside a batch of three: same node, limit and class, the same
        log-prob/entropy numbers when training, the same rng state afterwards
        — and a logits tap sees one call per observation with that
        observation's own row slice, in a batch of one and of three alike."""
        multi = workload == "multi_resource"
        agent = DecimaAgent(
            total_executors=8, config=DecimaConfig(seed=0, multi_resource=multi)
        )
        if multi:
            jobs = batched_arrivals(
                sample_tpch_jobs(2, np.random.default_rng(0), sizes=(2.0,))
            )
            assign_memory_requests(jobs, seed=0, low=0.3, high=0.9)
            env = SchedulingEnvironment(multi_resource_config(total_executors=8, seed=0))
            observation = env.reset(jobs)
        else:
            env, observation = make_env(num_jobs=3, seed=5)
        fillers = [make_env(num_jobs=n, seed=s)[1] for n, s in ((1, 4), (2, 6))]
        batch_of_three = [fillers[0], observation, fillers[1]]
        num_nodes = [
            sum(len(job.nodes) for job in member.job_dags) for member in batch_of_three
        ]

        def decide(how, step):
            rngs = [np.random.default_rng([step, k]) for k in range(3)]
            kwargs = dict(greedy=greedy, training=training)
            if how == "act":
                result = agent.act(
                    observation, rng=rngs[1], graph_cache=GraphCache(), **kwargs
                )
            elif how == "batch_of_one":
                (result,) = agent.act_batch(
                    [observation], rngs=rngs[1:2], graph_caches=[GraphCache()], **kwargs
                )
            else:
                result = agent.act_batch(
                    batch_of_three, rngs=rngs,
                    graph_caches=[GraphCache() for _ in range(3)], **kwargs
                )[1]
            return result, rngs[1].bit_generator.state

        for step in range(3):
            for tapped in (False, True):
                taps = []
                agent.logits_tap = (lambda rows: taps.append(len(rows))) if tapped else None
                (expected, expected_info), expected_rng = decide("act", step)
                assert taps == ([num_nodes[1]] if tapped else [])
                assert (expected_info is not None) == training
                assert (expected.executor_class is not None) == multi
                for how in ("batch_of_one", "batch_of_three"):
                    del taps[:]
                    (got, info), rng_state = decide(how, step)
                    assert got.node is expected.node
                    assert got.parallelism_limit == expected.parallelism_limit
                    assert got.executor_class is expected.executor_class
                    assert rng_state == expected_rng
                    if training:
                        # A batch of one is the same arithmetic; a merged
                        # forward may round its gemms differently.
                        atol = 0.0 if how == "batch_of_one" else 1e-10
                        for field in ("log_prob", "entropy"):
                            np.testing.assert_allclose(
                                getattr(info, field).data,
                                getattr(expected_info, field).data,
                                rtol=0, atol=atol,
                            )
                    if tapped:
                        assert taps == (
                            [num_nodes[1]] if how == "batch_of_one" else num_nodes
                        )
            observation, _, _ = env.step(expected)
            batch_of_three[1] = observation
            num_nodes[1] = sum(len(job.nodes) for job in observation.job_dags)


# ------------------------------------------------------- session reconciliation
class TestSessionReconciliation:
    def test_shadow_jobs_preserve_identity_between_requests(self):
        env, observation = make_env(num_jobs=2, seed=0)
        session = SessionState("s", num_executors=8)
        first = session.observation_from_snapshot(encode_observation(observation))
        second = session.observation_from_snapshot(encode_observation(env.observe()))
        assert [id(job) for job in first.job_dags] == [id(job) for job in second.job_dags]
        features = session.graph_cache.features(first)
        session.graph_cache.features(second)
        assert session.graph_cache.num_rebuilds == 1
        assert features.num_jobs == 2

    def test_counters_refresh_in_place(self):
        env, observation = make_env(num_jobs=1, seed=0)
        session = SessionState("s", num_executors=8)
        shadow_first = session.observation_from_snapshot(encode_observation(observation))
        node = observation.schedulable_nodes[0]
        observation, _, _ = env.step(Action(node=node, parallelism_limit=4))
        shadow_second = session.observation_from_snapshot(
            encode_observation(env.observe())
        )
        real = {n.node_id: n for job in env.active_jobs for n in job.nodes}
        for shadow_job in shadow_second.job_dags:
            for shadow_node in shadow_job.nodes:
                assert shadow_node.num_running_tasks == real[shadow_node.node_id].num_running_tasks
                assert shadow_node.num_finished_tasks == real[shadow_node.node_id].num_finished_tasks
        assert shadow_first.job_dags[0] is shadow_second.job_dags[0]

    def test_completed_jobs_dropped_and_arrivals_added(self):
        session = SessionState("s", num_executors=8)
        env, observation = make_env(num_jobs=3, seed=2)
        session.observation_from_snapshot(encode_observation(observation))
        assert session.num_jobs == 3
        payload = encode_observation(observation)
        payload["jobs"] = payload["jobs"][:1]
        payload["schedulable"] = [
            entry for entry in payload["schedulable"]
            if entry[0] == payload["jobs"][0]["job_id"]
        ]
        reduced = session.observation_from_snapshot(payload)
        assert session.num_jobs == 1
        assert len(reduced.job_dags) == 1

    def test_recycled_job_id_with_different_structure_rebuilds_shadow(self):
        """A client that reuses a job id for a structurally different job
        (e.g. per-episode numbering) must not be scheduled against the stale
        shadow DAG."""
        session = SessionState("s", num_executors=8)
        payload = {
            "wall_time": 0.0, "num_free_executors": 4, "total_executors": 8,
            "num_jobs_in_system": 1, "source_job": None,
            "jobs": [{
                "job_id": 7, "name": "a", "arrival_time": 0.0,
                "edges": [[0, 1]],
                "nodes": [
                    {"node_id": 0, "num_tasks": 2, "task_duration": 10.0,
                     "num_finished_tasks": 0, "num_running_tasks": 0,
                     "next_task_index": 0},
                    {"node_id": 1, "num_tasks": 3, "task_duration": 5.0,
                     "num_finished_tasks": 0, "num_running_tasks": 0,
                     "next_task_index": 0},
                ],
            }],
            "schedulable": [[7, 0]],
        }
        first = session.observation_from_snapshot(payload)
        recycled = {
            **payload,
            "jobs": [{
                "job_id": 7, "name": "b", "arrival_time": 50.0,
                "edges": [],
                "nodes": [{"node_id": 0, "num_tasks": 8, "task_duration": 99.0,
                           "num_finished_tasks": 0, "num_running_tasks": 0,
                           "next_task_index": 0}],
            }],
            "schedulable": [[7, 0]],
        }
        second = session.observation_from_snapshot(recycled)
        assert second.job_dags[0] is not first.job_dags[0]
        assert len(second.job_dags[0].nodes) == 1
        assert second.job_dags[0].nodes[0].num_tasks == 8
        assert second.job_dags[0].nodes[0].task_duration == 99.0
        # An identical snapshot afterwards reuses the rebuilt shadow.
        third = session.observation_from_snapshot(recycled)
        assert third.job_dags[0] is second.job_dags[0]

    def test_unknown_schedulable_node_raises(self):
        env, observation = make_env(num_jobs=1, seed=0)
        session = SessionState("s", num_executors=8)
        payload = encode_observation(observation)
        payload["schedulable"] = [[999, 0]]
        with pytest.raises(ProtocolError, match="unknown job"):
            session.observation_from_snapshot(payload)

    def test_encode_action_round_trip(self):
        env, observation = make_env(num_jobs=2, seed=1)
        session = SessionState("s", num_executors=8)
        shadow = session.observation_from_snapshot(encode_observation(observation))
        action = Action(node=shadow.schedulable_nodes[0], parallelism_limit=3)
        encoded = session.encode_action(action)
        assert encoded["noop"] is False
        assert encoded["parallelism_limit"] == 3
        client_jobs = {job.job_id for job in observation.job_dags}
        assert encoded["job_id"] in client_jobs
        assert session.encode_action(None) == {"noop": True}


# ------------------------------------------------------------- circuit breaker
class TestCircuitBreaker:
    def test_opens_after_consecutive_breaches(self):
        breaker = CircuitBreaker(slo_seconds=0.01, breach_threshold=3,
                                 cooldown_decisions=5)
        breaker.record_policy(0.02)
        breaker.record_policy(0.02)
        assert breaker.state == "closed"
        breaker.record_policy(0.02)
        assert breaker.state == "open"
        assert not breaker.allow_policy()

    def test_fast_decision_resets_breach_count(self):
        breaker = CircuitBreaker(slo_seconds=0.01, breach_threshold=2,
                                 cooldown_decisions=5)
        breaker.record_policy(0.02)
        breaker.record_policy(0.001)
        breaker.record_policy(0.02)
        assert breaker.state == "closed"

    def test_half_open_trial_closes_on_success(self):
        breaker = CircuitBreaker(slo_seconds=0.01, breach_threshold=1,
                                 cooldown_decisions=2)
        breaker.record_policy(0.02)
        assert breaker.state == "open"
        breaker.record_fallback()
        assert not breaker.allow_policy()
        breaker.record_fallback()
        assert breaker.allow_policy()  # half-open trial
        breaker.record_policy(0.001)
        assert breaker.state == "closed"

    def test_half_open_trial_reopens_on_breach(self):
        breaker = CircuitBreaker(slo_seconds=0.01, breach_threshold=1,
                                 cooldown_decisions=1)
        breaker.record_policy(0.02)
        breaker.record_fallback()
        assert breaker.allow_policy()
        breaker.record_policy(0.02)
        assert breaker.state == "open"
        assert breaker.num_opens == 2


class TestSLOFallback:
    def test_slow_policy_trips_breaker_and_sessions_keep_deciding(self, monkeypatch):
        """Acceptance: an artificially slowed policy path triggers the
        circuit-breaker; decisions keep flowing (from the fallback heuristic)
        and no request is dropped."""
        agent = DecimaAgent(total_executors=8, config=DecimaConfig(seed=0))
        slow = {"enabled": True}
        original = DecimaAgent.act_batch

        def slowed(self, *args, **kwargs):
            if slow["enabled"]:
                import time
                time.sleep(0.02)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(DecimaAgent, "act_batch", slowed)
        breaker = CircuitBreaker(slo_seconds=0.005, breach_threshold=2,
                                 cooldown_decisions=4)
        broker = RequestBroker(agent, batched=True, greedy=True, breaker=breaker)
        env, observation = make_env(num_jobs=3, seed=0)
        session = SessionState(
            "slo", num_executors=8,
            fallback=make_scheduler("fifo", SimulatorConfig(num_executors=8)),
        )
        sources = []
        for _ in range(40):
            if observation is None:
                break
            request = DecisionRequest(
                session=session,
                observation=session.observation_from_snapshot(
                    encode_observation(observation)
                ),
            )
            (result,) = broker.decide([request])
            assert result is not None  # nothing dropped
            sources.append(result.source)
            encoded = session.encode_action(result.action)
            if encoded["noop"]:
                action = None
            else:
                job = next(j for j in observation.job_dags
                           if j.job_id == encoded["job_id"])
                node = next(n for n in job.nodes
                            if n.node_id == encoded["node_id"])
                action = Action(node=node,
                                parallelism_limit=encoded["parallelism_limit"])
            observation, _, done = env.step(action)
            if done:
                break
        assert breaker.num_opens >= 1
        assert "fallback" in sources
        # The first breach_threshold decisions went through the (slow) policy.
        assert sources[:2] == ["policy", "policy"]
        assert session.num_fallback_decisions > 0
        assert session.num_decisions == len(sources)

    def test_open_breaker_with_mixed_fallback_batch(self):
        """A batch mixing sessions with and without a fallback must split:
        no-fallback sessions stay on the policy path, the rest fall back."""
        agent = DecimaAgent(total_executors=8, config=DecimaConfig(seed=0))
        breaker = CircuitBreaker(slo_seconds=60.0, breach_threshold=1,
                                 cooldown_decisions=10)
        breaker.record_policy(120.0)  # force open
        broker = RequestBroker(agent, batched=True, greedy=True, breaker=breaker)
        with_fallback = SessionState(
            "wf", num_executors=8,
            fallback=make_scheduler("fifo", SimulatorConfig(num_executors=8)),
        )
        without_fallback = SessionState("nf", num_executors=8, fallback=None)
        requests = []
        for session, seed in ((with_fallback, 0), (without_fallback, 1)):
            _, observation = make_env(num_jobs=2, seed=seed)
            requests.append(
                DecisionRequest(
                    session=session,
                    observation=session.observation_from_snapshot(
                        encode_observation(observation)
                    ),
                )
            )
        cooldown_before = breaker.cooldown_remaining
        results = broker.decide(requests)
        assert results[0].source == "fallback"
        assert results[1].source == "policy"
        assert results[0].action is not None and results[1].action is not None
        # The forced (no-fallback) policy pass must not be mistaken for the
        # half-open trial: the breaker stays open and only the fallback
        # decision consumed cooldown.
        assert breaker.state == "open"
        assert breaker.cooldown_remaining == cooldown_before - 1
        assert breaker.num_opens == 1

    def test_breaker_recovers_when_policy_is_fast_again(self):
        agent = DecimaAgent(total_executors=8, config=DecimaConfig(seed=0))
        breaker = CircuitBreaker(slo_seconds=60.0, breach_threshold=1,
                                 cooldown_decisions=1)
        broker = RequestBroker(agent, batched=True, greedy=True, breaker=breaker)
        breaker.record_policy(120.0)  # simulate a past breach
        assert breaker.state == "open"
        env, observation = make_env(num_jobs=2, seed=3)
        session = SessionState(
            "rec", num_executors=8,
            fallback=make_scheduler("fifo", SimulatorConfig(num_executors=8)),
        )
        results = []
        for _ in range(3):
            request = DecisionRequest(
                session=session,
                observation=session.observation_from_snapshot(
                    encode_observation(observation)
                ),
            )
            (result,) = broker.decide([request])
            results.append(result.source)
        # fallback burns the cooldown, then the half-open trial succeeds.
        assert results[0] == "fallback"
        assert "policy" in results[1:]
        assert breaker.state == "closed"


# ------------------------------------------------------------ socket transport
class TestPolicyServerEndToEnd:
    """Socket-level behaviour of the one :class:`PolicyServer`."""

    def test_two_concurrent_sessions_full_episodes(self, server_factory):
        agent = DecimaAgent(total_executors=8, config=DecimaConfig(seed=0))
        server = server_factory(agent)
        host, port = server.address
        summaries = [None, None]

        def run(index):
            rng = np.random.default_rng(index)
            jobs = batched_arrivals(sample_tpch_jobs(2, rng, sizes=(2.0, 5.0)))
            env = SchedulingEnvironment(
                SimulatorConfig(num_executors=8, seed=index)
            )
            with PolicyClient(host, port) as client:
                client.hello(session_id=f"e2e-{index}", num_executors=8,
                             seed=index)
                summaries[index] = drive_episode(client, env, jobs, seed=index)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for summary in summaries:
            assert summary is not None
            assert summary["decisions"] > 0
            assert summary["unfinished_jobs"] == 0
            assert set(summary["sources"]) == {"policy"}

    def test_explicit_port_binding(self, server_factory, free_port):
        """Servers honour an explicit port (the ``free_port`` fixture replaces
        the old racy bind-then-hope pattern for tests that must name one)."""
        agent = DecimaAgent(total_executors=6, config=DecimaConfig(seed=0))
        server = server_factory(agent, port=free_port)
        assert server.address[1] == free_port
        with PolicyClient(*server.address) as client:
            assert client.hello(num_executors=6)["type"] == "welcome"

    def test_served_actions_match_in_process_agent_after_checkpoint(self, tmp_path):
        """Acceptance satellite: train 2 tiny iterations, save, serve, and the
        served greedy action stream equals in-process ``agent.act`` at the
        same seed."""
        from repro.core import TrainingConfig
        from repro.experiments import train_decima_agent, tpch_batch_factory

        trained, _ = train_decima_agent(
            SimulatorConfig(num_executors=6, seed=0),
            tpch_batch_factory(2, sizes=(2.0, 5.0)),
            num_iterations=2,
            episodes_per_iteration=1,
            training_config=TrainingConfig(
                seed=0, initial_episode_time=400.0, max_actions_per_episode=50
            ),
            seed=0,
        )
        store = CheckpointStore(tmp_path)
        store.save(trained)

        def job_set():
            rng = np.random.default_rng(42)
            return batched_arrivals(sample_tpch_jobs(3, rng, sizes=(2.0, 5.0)))

        # In-process reference: greedy decisions straight from the agent.
        reference_agent = store.load()
        reference_agent.reset()
        env = SchedulingEnvironment(SimulatorConfig(num_executors=6, seed=0))
        observation = env.reset(job_set(), seed=0)
        reference = []
        done = False
        while not done:
            action, _ = reference_agent.act(observation, greedy=True)
            reference.append(
                (action.node.job.name, action.node.node_id, action.parallelism_limit)
            )
            observation, _, done = env.step(action)

        served_agent = store.load()
        assert parameter_fingerprint(served_agent) == parameter_fingerprint(trained)
        with PolicyServer(served_agent) as server:
            host, port = server.address
            env = SchedulingEnvironment(SimulatorConfig(num_executors=6, seed=0))
            observation = env.reset(job_set(), seed=0)
            served = []
            with PolicyClient(host, port) as client:
                client.hello(num_executors=6, seed=0)
                done = False
                while not done:
                    reply = client.decide(observation)
                    assert reply["source"] == "policy"
                    job = next(j for j in observation.job_dags
                               if j.job_id == reply["job_id"])
                    node = next(n for n in job.nodes
                                if n.node_id == reply["node_id"])
                    served.append((job.name, node.node_id,
                                   reply["parallelism_limit"]))
                    observation, _, done = env.step(
                        Action(node=node,
                               parallelism_limit=reply["parallelism_limit"])
                    )
        assert served == reference

    def test_run_load_reports_throughput(self, server_factory):
        agent = DecimaAgent(total_executors=6, config=DecimaConfig(seed=0))
        server = server_factory(agent)
        host, port = server.address
        summary = run_load(host, port, num_sessions=2, num_jobs=2,
                           num_executors=6, min_total_decisions=30)
        assert summary["decisions"] >= 30
        assert summary["latency_ms"]["count"] == summary["decisions"]
        assert summary["sources"].get("policy", 0) == summary["decisions"]
        assert summary["decisions_per_sec"] > 0

    def test_error_replies_keep_connection_usable(self, server_factory):
        agent = DecimaAgent(total_executors=6, config=DecimaConfig(seed=0))
        server = server_factory(agent)
        host, port = server.address
        with PolicyClient(host, port) as client:
            env, observation = make_env(num_jobs=1, seed=0, num_executors=6)
            with pytest.raises(ProtocolError, match="before hello"):
                client.decide(observation)
            client.hello(num_executors=6)
            reply = client.decide(observation)
            assert reply["type"] == "action"

    def test_malformed_decide_payload_keeps_connection_usable(self, server_factory):
        agent = DecimaAgent(total_executors=6, config=DecimaConfig(seed=0))
        server = server_factory(agent)
        host, port = server.address
        with PolicyClient(host, port) as client:
            client.hello(num_executors=6)
            with pytest.raises(ProtocolError, match="malformed"):
                client.request({"type": "decide"})  # no observation at all
            with pytest.raises(ProtocolError, match="malformed"):
                client.request(
                    {"type": "decide", "observation": {"jobs": "nonsense"}}
                )
            env, observation = make_env(num_jobs=1, seed=0, num_executors=6)
            assert client.decide(observation)["type"] == "action"

    def test_second_hello_on_connection_rejected_without_leaking(self, server_factory):
        agent = DecimaAgent(total_executors=6, config=DecimaConfig(seed=0))
        server = server_factory(agent)
        host, port = server.address
        with PolicyClient(host, port) as client:
            client.hello(session_id="first", num_executors=6)
            with pytest.raises(ProtocolError, match="already open"):
                client.hello(session_id="second", num_executors=6)
        # The connection closed: "first" must be reclaimed, and "second"
        # must never have been registered.
        for _ in range(50):
            if not server.sessions:
                break
            import time
            time.sleep(0.02)
        assert "first" not in server.sessions
        assert "second" not in server.sessions
        with PolicyClient(host, port) as client:
            client.hello(session_id="first", num_executors=6)

    def test_sampled_act_batch_requires_per_observation_rngs(self):
        agent = DecimaAgent(total_executors=8, config=DecimaConfig(seed=0))
        _, observation = make_env(num_jobs=1, seed=0)
        with pytest.raises(ValueError, match="one rng per observation"):
            agent.act_batch([observation], greedy=False)
        # Greedy draws nothing, so no rngs are required.
        (action, _), = agent.act_batch([observation], greedy=True)
        assert action is not None

    def test_unknown_fallback_rejected(self, server_factory):
        agent = DecimaAgent(total_executors=6, config=DecimaConfig(seed=0))
        with pytest.raises(KeyError, match="unknown fallback"):
            PolicyServer(agent, fallback="not_a_scheduler")
        server = server_factory(agent)
        host, port = server.address
        with PolicyClient(host, port) as client:
            with pytest.raises(ProtocolError, match="unknown fallback"):
                client.hello(fallback="not_a_scheduler")
