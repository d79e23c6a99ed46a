"""REINFORCE without retained graphs: records at rollout time, chunked replay at update time.

Rollouts decide on the inference data path and keep one plain-numpy
:class:`~repro.core.agent.ActionRecord` per decision; the update re-scores the
records in merged chunks of :data:`~repro.core.rollout.REPLAY_CHUNK`.  Pinned
here:

* the gradients of the chunked replay equal those of the retained-graph
  oracle — :func:`repro.verify.oracles.scored_act` holding every decision's
  graph until one whole-episode ``backward()``, the training step this
  replaced, kept below as the reference — at every chunk boundary and across
  a chunk whose merged components have different structures;
  and under each ablation that changes what the replay computes (one-level
  aggregation, no graph embedding, no parallelism control);
* scoring a chunk is scoring its records one by one (hypothesis), ``K``
  copies of a record score ``K`` times the record, and the chunk's autograd
  graph is as large for ``REPLAY_CHUNK`` records as for one — each head is
  one segment log-softmax per chunk, not one softmax per record;
* the GNN embeds each distinct job state of a chunk once (keyed by the job
  and its feature rows) and the node head scores only schedulable rows;
* no autograd graph, and no view of the feature arena, survives a rollout,
  and nothing of an iteration survives its gradients.
"""

import copy
import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor
from repro.core import (
    DecimaAgent,
    DecimaConfig,
    IterationPlan,
    SerialRolloutBackend,
)
from repro.core.parallel import accumulate_episode_gradients
from repro.core.rollout import (
    REPLAY_CHUNK,
    accumulate_record_gradients,
    chunk_loss,
    collect_rollout,
)
from repro.experiments.scenarios import get_scenario, scenario_workload_rng
from repro.simulator import SchedulingEnvironment
from repro.verify.oracles import scored_act

SCENARIOS = ("tpch_poisson", "multi_resource_packing")
ENTROPY_WEIGHT = 0.01


# The agent settings that change what the replay computes.
ABLATIONS = {
    "one_level_aggregation": dict(two_level_aggregation=False),
    "no_graph_embedding": dict(use_graph_embedding=False),
    "no_parallelism_control": dict(use_parallelism_control=False),
}


def episode(scenario: str, seed: int = 0, **settings):
    """``(environment, agent, jobs)`` of one small seeded scenario episode."""
    spec = get_scenario(scenario, num_jobs=6, num_executors=8)
    config = spec.build_config(seed)
    jobs = spec.build_jobs(scenario_workload_rng(scenario, seed))
    multi = len({cls for cls, _ in config.executor_classes or []}) > 1
    agent = DecimaAgent(
        config.num_executors, DecimaConfig(seed=0, multi_resource=multi, **settings)
    )
    return SchedulingEnvironment(config), agent, jobs


def rollout(scenario: str, length: int, seed: int = 0, **settings):
    environment, agent, jobs = episode(scenario, seed, **settings)
    trajectory = collect_rollout(
        environment, agent, jobs, rng=np.random.default_rng(1), seed=seed,
        max_actions=length,
    )
    return agent, trajectory


def advantages_for(length: int) -> np.ndarray:
    return np.random.default_rng(7).normal(size=length)


# ------------------------------------------------------------------ the oracle
def episode_loss(infos, advantages, entropy_weight):
    """REINFORCE loss of one episode: -advantage·log-prob minus entropy bonus."""
    loss = None
    for info, advantage in zip(infos, advantages):
        term = info.log_prob * float(-advantage)
        term = term - info.entropy * float(entropy_weight)
        loss = term if loss is None else loss + term
    return loss


def retained_graph_gradients(scenario: str, length: int, seed: int = 0, **settings):
    """The same episode through :func:`scored_act`, one whole-episode backward."""
    environment, agent, jobs = episode(scenario, seed, **settings)
    rng = np.random.default_rng(1)
    observation = environment.reset(jobs, seed=seed)
    infos = []
    done = False
    while not done and len(infos) < length:
        action, info = scored_act(agent, observation, rng, greedy=False)
        observation, _, done = environment.step(action)
        if info is not None:
            infos.append(info)
    agent.zero_grad()
    episode_loss(infos, advantages_for(len(infos)), ENTROPY_WEIGHT).backward()
    return [parameter.grad for parameter in agent.parameters()], len(infos)


def chunked_replay_gradients(scenario: str, length: int, seed: int = 0, **settings):
    agent, trajectory = rollout(scenario, length, seed, **settings)
    count = trajectory.num_actions
    gradients = accumulate_episode_gradients(
        agent, [trajectory], [advantages_for(count)], ENTROPY_WEIGHT
    )
    return gradients, count


def assert_same_gradients(replayed, oracle):
    assert len(replayed) == len(oracle)
    touched = 0
    for ours, theirs in zip(replayed, oracle):
        assert (ours is None) == (theirs is None)
        if ours is not None:
            np.testing.assert_allclose(ours, theirs, atol=1e-9, rtol=0)
            touched += bool(np.abs(theirs).max() > 0)
    assert touched > 10  # not vacuous: the gradient reaches most parameters


class TestGradientEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize(
        "length", [1, REPLAY_CHUNK - 1, REPLAY_CHUNK, REPLAY_CHUNK + 1]
    )
    def test_chunked_replay_matches_retained_graph_oracle(self, scenario, length):
        replayed, count = chunked_replay_gradients(scenario, length)
        oracle, oracle_count = retained_graph_gradients(scenario, length)
        assert count == oracle_count == length
        assert_same_gradients(replayed, oracle)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_chunk_spanning_an_arrival_and_a_completion(self, scenario):
        length = 2 * REPLAY_CHUNK
        _, trajectory = rollout(scenario, length)
        live_jobs = [t.record.graph.num_jobs for t in trajectory.transitions]
        first_chunk = np.diff(live_jobs[:REPLAY_CHUNK])
        # Component structures differ inside one merge, both ways.
        assert (first_chunk > 0).any() and (first_chunk < 0).any()
        replayed, count = chunked_replay_gradients(scenario, length)
        oracle, oracle_count = retained_graph_gradients(scenario, length)
        assert count == oracle_count and count > REPLAY_CHUNK
        assert_same_gradients(replayed, oracle)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("ablation", sorted(ABLATIONS))
    def test_ablations_match_the_retained_graph_oracle(self, scenario, ablation):
        settings = ABLATIONS[ablation]
        length = REPLAY_CHUNK + 1
        replayed, count = chunked_replay_gradients(scenario, length, **settings)
        oracle, oracle_count = retained_graph_gradients(scenario, length, **settings)
        assert count == oracle_count == length
        assert_same_gradients(replayed, oracle)

    def test_multi_resource_replay_reaches_the_class_head(self):
        agent, trajectory = rollout("multi_resource_packing", REPLAY_CHUNK)
        records = [t.record for t in trajectory.transitions]
        assert all(record.classes for record in records)
        assert len({record.class_row for record in records}) > 1
        accumulate_episode_gradients(
            agent, [trajectory], [advantages_for(len(records))], ENTROPY_WEIGHT
        )
        for parameter in agent.policy.class_score.parameters():
            assert np.abs(parameter.grad).max() > 0


# ------------------------------------------------- chunk == its records, one by one
_RECORDS = {}


def recorded(scenario: str):
    if scenario not in _RECORDS:
        agent, trajectory = rollout(scenario, 48)
        _RECORDS[scenario] = agent, [t.record for t in trajectory.transitions]
    return _RECORDS[scenario]


def tape_size(loss: Tensor) -> int:
    """Tensors reachable from ``loss``: the autograd graph one backward walks."""
    seen = set()
    stack = [loss]
    while stack:
        tensor = stack.pop()
        if id(tensor) not in seen:
            seen.add(id(tensor))
            stack.extend(tensor._parents)
    return len(seen)


class TestChunkScoring:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_chunk_scores_equal_per_record_scores(self, scenario, data):
        agent, records = recorded(scenario)
        rows = data.draw(
            st.lists(st.integers(0, len(records) - 1), min_size=1, max_size=12)
        )
        # Any order, repeats allowed.  Every multi_resource_packing record
        # carries a class choice; dropping it from some of them mixes records
        # with and without a class head in one chunk.
        drop_class = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        chunk = [
            dataclasses.replace(records[row], classes=()) if drop else records[row]
            for row, drop in zip(rows, drop_class)
        ]
        merged = agent.score_actions(chunk)
        assert merged.log_prob.shape == merged.entropy.shape == (len(chunk),)
        for position, record in enumerate(chunk):
            single = agent.score_actions([record])
            assert single.log_prob.shape == (1,)
            assert abs(merged.log_prob.data[position] - single.log_prob.data[0]) <= 1e-10
            assert abs(merged.entropy.data[position] - single.entropy.data[0]) <= 1e-10

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_copies_of_a_record_score_as_the_record(self, scenario):
        agent, records = recorded(scenario)
        record = records[REPLAY_CHUNK // 2]
        single = agent.score_actions([record])
        copies = agent.score_actions([record] * REPLAY_CHUNK)
        for scored, alone in ((copies.log_prob, single.log_prob), (copies.entropy, single.entropy)):
            # atol for an entropy that is a rounding error away from zero.
            np.testing.assert_allclose(
                scored.data, np.full(REPLAY_CHUNK, alone.data[0]), rtol=1e-12, atol=1e-12
            )
        agent.zero_grad()
        chunk_loss(agent, [record], [1.0], ENTROPY_WEIGHT).backward()
        once = [parameter.grad for parameter in agent.parameters()]
        agent.zero_grad()
        chunk_loss(
            agent, [record] * REPLAY_CHUNK, np.ones(REPLAY_CHUNK), ENTROPY_WEIGHT
        ).backward()
        # An entry whose terms cancel to near zero (a softmax head's output
        # bias: exactly zero in exact arithmetic) rounds at the size of the
        # largest gradient entry, not at its own.
        scale = REPLAY_CHUNK * max(np.abs(grad).max() for grad in once)
        for ours, theirs in zip((parameter.grad for parameter in agent.parameters()), once):
            np.testing.assert_allclose(
                ours, REPLAY_CHUNK * theirs, rtol=1e-12, atol=1e-15 * scale
            )

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_the_gnn_embeds_each_job_state_once(self, scenario, monkeypatch):
        agent, records = recorded(scenario)
        # Consecutive decisions, each of them twice.
        chunk = records[: REPLAY_CHUNK // 2] * 2
        seen = {"prep": [], "node_score": []}

        class Rows:
            """An MLP of the agent, counting the rows it is called on."""

            def __init__(self, name, mlp):
                self.name, self.mlp = name, mlp

            def __call__(self, inputs):
                seen[self.name].append(inputs.shape[0])
                return self.mlp(inputs)

        monkeypatch.setattr(agent.gnn, "prep", Rows("prep", agent.gnn.prep))
        monkeypatch.setattr(
            agent.policy, "node_score", Rows("node_score", agent.policy.node_score)
        )
        agent.score_actions(chunk)
        states = {}
        for record in chunk:
            graph = record.graph
            offsets = graph.structure.job_node_offsets
            for position, job in enumerate(graph.jobs):
                rows = graph.node_features[offsets[position]: offsets[position + 1]]
                states[id(job), rows.tobytes()] = len(rows)
        merged_rows = sum(record.graph.num_nodes for record in chunk)
        schedulable = sum(int(record.graph.schedulable_mask.sum()) for record in chunk)
        assert seen["prep"] == [sum(states.values())]
        assert seen["node_score"] == [schedulable]
        # Not vacuous: the chunk repeats job states and has unschedulable rows.
        assert 2 * sum(states.values()) <= merged_rows
        assert 2 * schedulable < merged_rows

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_the_tape_does_not_grow_with_the_chunk(self, scenario):
        agent, records = recorded(scenario)
        record = records[REPLAY_CHUNK // 2]
        one = chunk_loss(agent, [record], [1.0], ENTROPY_WEIGHT)
        full = chunk_loss(
            agent, [record] * REPLAY_CHUNK, advantages_for(REPLAY_CHUNK), ENTROPY_WEIGHT
        )
        assert tape_size(full) == tape_size(one)

    def test_every_record_needs_an_advantage(self):
        agent, records = recorded("tpch_poisson")
        for count in (2, 4):
            with pytest.raises(ValueError, match=f"3 records but {count} advantages"):
                accumulate_record_gradients(
                    agent, records[:3], advantages_for(count), ENTROPY_WEIGHT
                )


# ------------------------------------------------------------ nothing is retained
def live_graph_tensors() -> int:
    gc.collect()
    return sum(
        1
        for candidate in gc.get_objects()
        if isinstance(candidate, Tensor) and candidate._backward is not None
    )


class TestNoRetainedGraph:
    def collect(self, scenario="tpch_poisson"):
        spec = get_scenario(scenario, num_jobs=4, num_executors=8)
        config = spec.build_config(0)
        jobs = spec.build_jobs(scenario_workload_rng(scenario, 0))
        agent = DecimaAgent(config.num_executors, DecimaConfig(seed=0))
        backend = SerialRolloutBackend()
        plan = IterationPlan(
            num_episodes=2,
            episode_time=config.max_time,
            make_jobs=lambda rng: copy.deepcopy(jobs),
            max_actions=40,
        )
        outcomes = backend.collect(agent, config, plan, np.random.default_rng(0))
        return agent, backend, outcomes

    def test_collect_keeps_no_autograd_graph(self):
        before = live_graph_tensors()
        agent, backend, outcomes = self.collect()
        assert sum(outcome.num_actions for outcome in outcomes) == 80
        # ``before`` is 0 unless an earlier test of the session still holds a graph.
        assert live_graph_tensors() <= before

    def test_records_own_their_arrays(self):
        environment, agent, jobs = episode("tpch_poisson")
        snapshots = []

        class Snapshotting:
            """The agent, with each decision's record copied as it is made."""

            def __getattr__(self, name):
                return getattr(agent, name)

            def act(self, *args, **kwargs):
                action, record = agent.act(*args, **kwargs)
                cache = agent.graph_cache
                assert not np.shares_memory(record.graph.node_features, cache._features_buf)
                assert not np.shares_memory(record.graph.schedulable_mask, cache._mask_buf)
                snapshots.append(
                    (record.graph.node_features.copy(), record.graph.schedulable_mask.copy())
                )
                return action, record

        trajectory = collect_rollout(
            environment, Snapshotting(), jobs, rng=np.random.default_rng(1), seed=0,
            max_actions=40,
        )
        # Every later step rewrote the arena; clobber what is left of it too.
        agent.graph_cache._features_buf[:] = -1.0
        agent.graph_cache._mask_buf[:] = True
        assert len(snapshots) == trajectory.num_actions == 40
        for transition, (features, mask) in zip(trajectory.transitions, snapshots):
            np.testing.assert_array_equal(transition.record.graph.node_features, features)
            np.testing.assert_array_equal(transition.record.graph.schedulable_mask, mask)

    def test_gradients_release_the_iteration(self):
        before = live_graph_tensors()
        agent, backend, outcomes = self.collect()
        assert len(backend._trajectories) == 2
        gradients = backend.compute_gradients(
            agent, [advantages_for(outcome.num_actions) for outcome in outcomes], 0.0
        )
        assert any(gradient is not None for gradient in gradients)
        assert backend._trajectories == []
        assert agent.graph_cache._structure is None
        assert live_graph_tensors() <= before
