"""Embedding reuse in ``GraphNeuralNetwork.forward_data`` vs its definition (issue 21).

``forward_data`` remembers, per :class:`GraphStructure`, the feature matrix
it last embedded and what came out, and re-embeds only the jobs that own a
changed row.  The definition it answers to is the same forward over every
row.  A gemm's row results depend on how many rows it has, so a partly stale
forward cannot be bit-equal to the full one: the contract is values equal to
1e-10 and *identical decisions*.

The test graphs are small, so almost everything here runs with
``REUSE_MIN_NODES`` patched to 0 — at the shipped value none of them would
ever leave the all-stale path.
"""

import dataclasses
import gc
import weakref
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.gnn as gnn_module
from _helpers import make_decima_agent, make_tpch_env
from repro.core.features import (
    FeatureConfig,
    GraphBatch,
    GraphCache,
    GraphStructure,
    MergedStructureCache,
    _drop_jobs,
)
from repro.core.gnn import GraphNeuralNetwork
from repro.core.nn import Adam
from repro.simulator.environment import Action

TOL = 1e-10


def reuse_on_any_graph():
    """The ``reuse_everywhere`` fixture as a context manager, for the
    hypothesis test (function-scoped fixtures do not reset between examples)."""
    return mock.patch.object(gnn_module, "REUSE_MIN_NODES", 0)


def full_forward(gnn, graph):
    """``forward_data`` of a network with ``gnn``'s weights and no memory."""
    fresh = GraphNeuralNetwork(gnn.config, np.random.default_rng(0))
    fresh.load_state_dict(gnn.state_dict())
    return [array.copy() for array in fresh.forward_data(graph)]


def assert_matches_full(gnn, graph):
    got = gnn.forward_data(graph)
    for mine, reference in zip(got, full_forward(gnn, graph)):
        np.testing.assert_allclose(mine, reference, rtol=0.0, atol=TOL)
    return got


def recomputed_by(gnn, graph):
    before = gnn.rows_recomputed
    gnn.forward_data(graph)
    return gnn.rows_recomputed - before


def same_action(a, b):
    return a.node is b.node and a.parallelism_limit == b.parallelism_limit


def hinted_agents(num_executors):
    """An agent that reuses and one that cannot: without a graph cache every
    decision gets a new structure, so each of its forwards is the full one."""
    feature = FeatureConfig(include_interarrival_hint=True)
    return (
        make_decima_agent(total_executors=num_executors, feature=feature),
        make_decima_agent(
            total_executors=num_executors, use_graph_cache=False, feature=feature
        ),
    )


def drive_and_compare(seed, steps, staggered, num_jobs=5, num_executors=6):
    """Step a seeded episode; at every decision the reusing network must match
    the full forward and the reusing agent must decide what the other does.

    A step is ``(choice, free, source, hint)``: the action taken (task starts
    and, as time advances, finishes, departures and — ``staggered`` —
    arrivals), and optional overrides of the three whole-observation scalars
    that feed every row's feature vector.
    """
    env, observation = make_tpch_env(
        num_jobs=num_jobs, num_executors=num_executors, seed=seed, staggered=staggered
    )
    agent, forgetful = hinted_agents(num_executors)
    for choice, free, source, hint in steps:
        if not observation.schedulable_nodes:
            break
        seen = observation
        if free is not None:
            seen = dataclasses.replace(seen, num_free_executors=free)
        if source is not None:
            jobs = observation.job_dags
            seen = dataclasses.replace(seen, source_job=jobs[source % len(jobs)])
        agent.interarrival_hint = forgetful.interarrival_hint = hint
        graph = agent.build_features(seen, reuse_buffers=True)
        assert_matches_full(agent.gnn, graph)
        mine, _ = agent.act(seen, greedy=True)
        reference, _ = forgetful.act(seen, greedy=True)
        assert same_action(mine, reference)
        nodes = observation.schedulable_nodes
        action = Action(node=nodes[choice % len(nodes)], parallelism_limit=1 + choice % 4)
        observation, _, done = env.step(action)
        if done:
            break
    return agent


STEP = st.tuples(
    st.integers(0, 1_000),
    st.none() | st.integers(0, 6),
    st.none() | st.integers(0, 10),
    st.none() | st.sampled_from([0.0, 25.0, 60.0]),
)


class TestReuseEqualsFullForward:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 50),
        steps=st.lists(STEP, min_size=5, max_size=40),
        staggered=st.booleans(),
    )
    def test_over_random_event_sequences(self, seed, steps, staggered):
        with reuse_on_any_graph():
            drive_and_compare(seed, steps, staggered)

    def test_the_property_exercises_every_path(self, level_cuts):
        """Arrivals and departures rebuild or edit the structure, and between
        them the network runs partly stale, wholly stale and not stale at all
        — otherwise the property above proves nothing."""
        steps = [(7 * k, None, None, None) for k in range(120)]
        agent = drive_and_compare(3, steps, staggered=True, num_executors=4)
        assert agent.graph_cache.num_rebuilds >= 4       # arrivals and departures
        assert 0 < agent.gnn.rows_recomputed < agent.gnn.rows_seen
        assert any(rows > 0 for rows in level_cuts)      # partly stale
        assert 0 in level_cuts                           # nothing stale

    def test_on_a_graph_over_the_shipped_constant(self):
        """No patching: 30 TPC-H jobs are past ``REUSE_MIN_NODES``."""
        steps = [(3 * k, None, None, None) for k in range(40)]
        agent = drive_and_compare(1, steps, staggered=False, num_jobs=30, num_executors=10)
        assert agent.graph_cache._structure.num_nodes >= gnn_module.REUSE_MIN_NODES
        assert 0 < agent.gnn.rows_recomputed < 0.5 * agent.gnn.rows_seen

    def test_small_graphs_keep_nothing(self):
        env, observation = make_tpch_env(num_jobs=3, seed=0)
        agent = make_decima_agent()
        for _ in range(3):
            agent.act(observation, greedy=True)
        assert len(agent.gnn._states) == 0
        assert agent.gnn.rows_recomputed == agent.gnn.rows_seen > 0


class TestRestrictedLevels:
    def test_restricted_levels_are_the_levels_of_the_kept_jobs(self):
        """``restricted_to`` keeps full-graph row numbers; mapped through the
        kept rows, it is level for level what ``_drop_jobs`` builds."""
        _, observation = make_tpch_env(num_jobs=6, seed=4)
        structure = GraphStructure(observation.job_dags)
        keep_jobs = np.array([True, False, True, True, False, True])
        dropped, keep_rows = _drop_jobs(structure, keep_jobs)
        old_row = np.flatnonzero(keep_rows)
        restricted = [level.restricted_to(keep_rows) for level in structure.frontier_levels]
        restricted = [level for level in restricted if level.num_targets]
        assert len(restricted) == len(dropped.frontier_levels) > 0
        for mine, reference in zip(restricted, dropped.frontier_levels):
            assert mine.height == reference.height
            assert np.array_equal(mine.target_rows, old_row[reference.target_rows])
            assert np.array_equal(mine.child_rows, old_row[reference.child_rows])
            assert np.array_equal(mine.message_rows, reference.message_rows)
            assert np.array_equal(mine.target_segments, reference.target_segments)


class TestWeights:
    def _decided_once(self):
        _, observation = make_tpch_env(num_jobs=4, seed=2)
        agent = make_decima_agent()
        graph = agent.build_features(observation, reuse_buffers=True)
        before = agent.gnn.forward_data(graph)[0].copy()
        assert recomputed_by(agent.gnn, graph) == 0
        return agent, graph, before

    def test_load_state_dict_between_decisions(self, reuse_everywhere):
        agent, graph, before = self._decided_once()
        agent.load_state_dict(make_decima_agent(seed=5).state_dict())
        assert recomputed_by(agent.gnn, graph) == graph.num_nodes
        node_embeddings = assert_matches_full(agent.gnn, graph)[0]
        assert not np.allclose(node_embeddings, before)

    def test_adam_step_between_decisions(self, reuse_everywhere):
        agent, graph, before = self._decided_once()
        optimizer = Adam(agent.parameters(), learning_rate=0.05)
        optimizer.apply_gradients([np.ones_like(p.data) for p in agent.parameters()])
        assert recomputed_by(agent.gnn, graph) == graph.num_nodes
        node_embeddings = assert_matches_full(agent.gnn, graph)[0]
        assert not np.allclose(node_embeddings, before)

    def test_writing_into_live_weights_is_unsupported(self, reuse_everywhere):
        """The contract, named: the state holds the ``.data`` arrays it was
        computed from and compares them with ``is``.  ``load_state_dict`` and
        ``Adam.step`` rebind ``.data``; a writer that mutates the arrays of a
        network that has already decided is not seen, and must call
        ``forget_embeddings`` itself.  (Mutating before the first decision,
        as two checkpoint tests do, is fine: nothing is remembered yet.)"""
        agent, graph, before = self._decided_once()
        for parameter in agent.gnn.parameters():
            parameter.data += 0.25
        assert np.array_equal(agent.gnn.forward_data(graph)[0], before)
        agent.gnn.forget_embeddings()
        node_embeddings = assert_matches_full(agent.gnn, graph)[0]
        assert not np.allclose(node_embeddings, before)


class TestSessionsShareOneNetwork:
    def _sessions(self, seeds):
        return [
            [*make_tpch_env(num_jobs=4, num_executors=6, seed=seed), GraphCache()]
            for seed in seeds
        ]

    def test_alternating_sessions_never_read_each_others_state(self, reuse_everywhere):
        agent, forgetful = hinted_agents(6)
        sessions = self._sessions((11, 12))
        for _ in range(15):
            for session in sessions:
                env, observation, cache = session
                if not observation.schedulable_nodes:
                    continue
                graph = agent.build_features(
                    observation, graph_cache=cache, reuse_buffers=True
                )
                assert_matches_full(agent.gnn, graph)
                mine, _ = agent.act(observation, greedy=True, graph_cache=cache)
                reference, _ = forgetful.act(observation, greedy=True)
                assert same_action(mine, reference)
                session[1], _, _ = env.step(mine)
        # One state per live structure, and most rows were reused.
        assert len(agent.gnn._states) == len(sessions)
        assert agent.gnn.rows_recomputed < 0.5 * agent.gnn.rows_seen

    def test_merged_batch_between_single_decisions(self, reuse_everywhere):
        """A merged two-session forward has its own structure, hence its own
        state; the sessions' single-component states are neither read nor
        disturbed by it."""
        agent, forgetful = hinted_agents(6)
        sessions = self._sessions((21, 22))
        merge_cache = MergedStructureCache()
        caches = [cache for _, _, cache in sessions]
        for round_index in range(12):
            observations = [observation for _, observation, _ in sessions]
            if not all(observation.schedulable_nodes for observation in observations):
                break
            if round_index % 2:
                components = [
                    agent.build_features(observation, graph_cache=cache, reuse_buffers=True)
                    for observation, cache in zip(observations, caches)
                ]
                merged = GraphBatch.merge(
                    components, structure_cache=merge_cache, reuse_buffers=True
                )
                assert merged.features.num_graphs == 2
                assert_matches_full(agent.gnn, merged.features)
                decisions = agent.act_batch(
                    observations, greedy=True, graph_caches=caches, merge_cache=merge_cache
                )
            else:
                decisions = []
                for observation, cache in zip(observations, caches):
                    graph = agent.build_features(
                        observation, graph_cache=cache, reuse_buffers=True
                    )
                    assert_matches_full(agent.gnn, graph)
                    decisions.append(agent.act(observation, greedy=True, graph_cache=cache))
            for session, observation, (mine, _) in zip(sessions, observations, decisions):
                reference, _ = forgetful.act(observation, greedy=True)
                assert same_action(mine, reference)
                session[1], _, _ = session[0].step(mine)
        assert round_index >= 4


class TestStateLifetime:
    def test_forget_embeddings_drops_every_state(self, reuse_everywhere):
        _, observation = make_tpch_env(num_jobs=3, seed=1)
        agent = make_decima_agent()
        graph = agent.build_features(observation, reuse_buffers=True)
        agent.gnn.forward_data(graph)
        assert len(agent.gnn._states) == 1
        agent.gnn.forget_embeddings()
        assert len(agent.gnn._states) == 0
        assert recomputed_by(agent.gnn, graph) == graph.num_nodes

    def test_a_dropped_structure_takes_its_state_and_jobs_with_it(self, reuse_everywhere):
        """The network keys its states weakly and a state holds arrays only:
        once the graph cache lets go of an episode nothing here pins it."""
        env, observation = make_tpch_env(num_jobs=3, seed=1)
        agent = make_decima_agent()
        agent.act(observation, greedy=True)
        assert len(agent.gnn._states) == 1
        structure = weakref.ref(agent.graph_cache._structure)
        job = weakref.ref(observation.job_dags[0])
        agent.reset_graph_cache()
        del env, observation
        gc.collect()
        assert structure() is None and job() is None
        assert len(agent.gnn._states) == 0
